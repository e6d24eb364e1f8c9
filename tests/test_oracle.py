"""The conformance oracle is really the oracle, and stays out of production.

The fuzzer's cross-engine check and every differential test compare a
production hot path against :mod:`repro.conformance.oracle`. That proves
nothing if the oracle system quietly runs production components, so one
scenario here runs through the selection point and inspects what ran.
The import-boundary test keeps the legacy paths from leaking back into
production code.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import repro
from repro.conformance.oracle import (
    HeapSimulator,
    OracleSystem,
    RebuildIntervalIndex,
    ScanFilterTable,
    build_oracle_system,
)
from repro.conformance.scenarios import Scenario
from repro.experiments.runner import drain_to_quiescence

ORACLE = "repro.conformance.oracle"


def test_oracle_system_runs_every_legacy_component(monkeypatch):
    walks = []
    full_walk = ScanFilterTable.covered_candidates

    def counted(self, nbr, f):
        walks.append(nbr)
        return full_walk(self, nbr, f)

    monkeypatch.setattr(ScanFilterTable, "covered_candidates", counted)
    # sub-unsub with covering on exercises covering checks and withdrawals;
    # the crash plan makes the repair round install fresh tables too
    scenario = Scenario.crash_from_seed(11, protocol="sub-unsub")
    cfg = dataclasses.replace(scenario.config(), covering_enabled=True)
    system, workload = build_oracle_system(cfg)
    assert isinstance(system, OracleSystem) and system.covering_enabled
    system.run(until=cfg.workload.duration_ms)
    workload.stop()
    drain_to_quiescence(system, workload)

    sim = system.sim
    assert type(sim) is HeapSimulator and system.clock is sim
    assert sim.events_processed > 0
    assert sim._lanes == {} and sim._lane_heads == []
    assert system.recovery is not None and system.recovery.repairs > 0
    assert system.metrics.delivery.stats.delivered > 0
    assert walks  # covering withdrawals took the full-table walk
    for broker in system.brokers.values():
        table = broker.table
        assert type(table) is ScanFilterTable
        assert table._candidates is None
        for peers in (table._from_nbr, table._advertised):
            for peer in peers.values():
                assert type(peer.ranges) is RebuildIntervalIndex
                assert peer.cov is None


def _imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_no_production_module_imports_the_oracle():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "conformance":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(name == ORACLE for name in _imports(tree)):
            offenders.append(str(rel))
    assert offenders == []
