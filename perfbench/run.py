"""MHH stack benchmark: one command, four workloads, end-to-end and traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload run executes in a fresh interpreter (``perfbench/worker.py``)
against this checkout's ``src``. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give provenance, the workload's
rationale and every metric with its unit and sample count. The command
exits non-zero when a check fails, and when the checkout holds no source.
Full reports and the traced spans land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAYER_TO_E2E, PER_LAYER_UNITS, WORKLOADS  # noqa: E402
from worker import OUT_DIR  # noqa: E402

#: wall seconds one workload run may take before its process group is
#: killed (a run must end within 180 s)
RUN_TIMEOUT_S = 170.0

#: (unit, what the sample count is) of every end-to-end metric
E2E_UNITS = {
    "setup_s": ("s", "median of {setups} set-ups"),
    "run_s": ("s", "median of {rounds} rounds"),
    "deliveries_per_s": ("1/s", "median of {rounds} rounds"),
    "handoffs_per_s": ("1/s", "median of {rounds} rounds"),
    "peak_rss_mb": ("MiB", "1 process"),
    "dispatch_ms_p50": ("ms", "{dispatches} dispatches"),
    "dispatch_ms_p99": ("ms", "{dispatches} dispatches"),
    "failed_ratio": ("1", "{attempted} expected deliveries"),
}
#: the metrics BENCHMARK.json gates: measured on every workload, never 0
GATED = ("setup_s", "run_s", "deliveries_per_s", "peak_rss_mb")


def provenance(seed: int) -> Dict[str, Any]:
    """What was measured, where: never the parent commit, always HEAD."""
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    prov: Dict[str, Any] = {
        "seed": seed,
        "src_sha256": digest.hexdigest()[:16],
        "git_head": None,
        "git_dirty": None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "hash_seed": "0",
    }
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return prov
        if head.returncode == 0:
            prov["git_head"] = head.stdout.strip()
            prov["git_dirty"] = bool(dirty.stdout.strip())
    return prov


def run_worker(name: str, args: argparse.Namespace) -> Optional[Dict]:
    """One workload run in a fresh process group; killed on timeout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name}: no result within {RUN_TIMEOUT_S:g} s",
              file=sys.stderr)
        out = ""
    finally:
        # the worker's node processes share its process group: nothing
        # it started outlives the run, whichever way the run ended
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def report(res: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics; return the result line's metrics."""
    name = res["workload"]
    wl = WORKLOADS[name]
    print(f"# {name}: {wl.why}")
    print(f"#   loads {', '.join(wl.loads)}; idle {', '.join(wl.idle)}; "
          f"{res['processes']} process(es), {res['transport']}, "
          f"on CPU {res['cpus']}")
    print(f"#   digest {res['digest']} {json.dumps(res['digest_fields'])}")
    counts = dict(res.get("samples", {}), attempted=res["attempted"])
    e2e = res.get("e2e", {})
    for metric, (unit, samples) in E2E_UNITS.items():
        if metric in e2e:
            print(f"#   {metric:<18} {e2e[metric]:>14.6g} {unit:<4} "
                  f"({samples.format(**counts)})")
        else:
            print(f"#   {metric:<18} {'n/a':>14} {unit}")
    wall = res.get("wall")
    if wall:
        print(f"#   times above are calibrated; raw wall medians: set-up "
              f"{wall['setup_s']:.6g} s, run {wall['run_s']:.6g} s; "
              f"reference kernel {wall['reference_s'] * 1e3:.4g} ms")
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for metric in GATED:
            if metric in e2e:
                metrics[metric] = {"value": e2e[metric],
                                   "unit": E2E_UNITS[metric][0]}
        return metrics
    layers = dict(res.get("layers", {}))
    # the end-to-end metrics not every workload has ride in the traced run
    for metric in ("handoffs_per_s", "dispatch_ms_p50", "dispatch_ms_p99",
                   "failed_ratio"):
        layers[f"e2e.{metric}"] = e2e.get(metric, 0.0)
    layers["e2e.dispatch_samples"] = counts.get("dispatches", 0)
    for layer, moves in LAYER_TO_E2E.items():
        print(f"#   [{layer}] should move {moves}")
        for key in sorted(k for k in layers if k.startswith(layer + ".")):
            print(f"#     {key:<40} {layers[key]:>14.6g} "
                  f"{PER_LAYER_UNITS[key]}")
    print(f"#   trace.overhead_ratio {layers.get('trace.overhead_ratio', 0):.3f}"
          f" (traced run_s / untraced run_s, "
          f"{res['traced_rounds']} traced rounds)")
    for key, unit in PER_LAYER_UNITS.items():
        if key in layers:  # all of them, unless the run failed
            metrics[key] = {"value": layers[key], "unit": unit}
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        res = run_worker(name, args)
        if res is None:
            print(f"perfbench: {name}: the run produced no result",
                  file=sys.stderr)
            return 3
        res["provenance"] = prov
        (OUT_DIR / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(res, indent=1))
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        got = report(res, bool(args.trace))
        if len(names) > 1:
            got = {f"{name}.{k}": v for k, v in got.items()}
        metrics.update(got)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
