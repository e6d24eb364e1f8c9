"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks, on every workload:

* a traced run is correct, passes its cross-checks, and every end-to-end
  and per-layer metric is printed by name with its unit;
* no self time is negative;
* the same seed gives the same digest, another seed another digest;
* a forced invariant break (the app sees an event twice; a delivery the
  checker never records) gives ``failed_ratio == 1`` and a non-zero exit;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_UNITS, report  # noqa: E402
from workloads import PER_LAYER_UNITS, WORKLOADS  # noqa: E402

#: code run before worker.main() to break one invariant on purpose
SABOTAGE = {
    "app sees an event twice": (
        "from repro.pubsub.client import Client\n"
        "orig = Client._deliver_event\n"
        "def twice(self, event):\n"
        "    orig(self, event)\n"
        "    if self.on_event is not None:\n"
        "        self.on_event(event)\n"
        "Client._deliver_event = twice\n"),
    "a delivery goes unrecorded": (
        "from repro.metrics.delivery import DeliveryChecker\n"
        "orig = DeliveryChecker.on_delivery\n"
        "def lossy(self, client, event, time):\n"
        "    if event.event_id % 5:\n"
        "        orig(self, client, event, time)\n"
        "DeliveryChecker.on_delivery = lossy\n"),
}


def worker(name: str, seed: int, trace: int, prelude: str = ""):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "toy"]
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
            "import worker; worker.bootstrap()\n"
            f"{prelude}"
            f"sys.exit(worker.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"})
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list = []
    for name in WORKLOADS:
        code, res, proc = worker(name, 1, 1)
        check(code == 0 and res is not None and res["correct"],
              f"{name}: traced toy run correct "
              f"{res['errors'] if res else proc.stderr[-500:]}", failures)
        if res is None or "layers" not in res:
            continue
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            report(res, trace=True)
        printed = text.getvalue()
        for metric, (unit, _) in E2E_UNITS.items():
            check(f" {metric} " in printed and (
                f" {unit} " in printed or f" {unit}\n" in printed),
                f"{name}: {metric} printed with {unit}", failures)
        missing = [m for m, unit in PER_LAYER_UNITS.items()
                   if not m.startswith("e2e.")
                   and f"{m}" not in printed]
        check(not missing, f"{name}: every per-layer metric printed "
              f"{missing}", failures)
        negative = {k: v for k, v in res["layers"].items()
                    if k.endswith("_s") and v < 0}
        check(not negative, f"{name}: no negative self time {negative}",
              failures)
        again = worker(name, 1, 0)[1]
        other = worker(name, 2, 0)[1]
        check(again is not None and again["digest"] == res["digest"],
              f"{name}: seed 1 twice gives digest {res['digest']}", failures)
        check(other is not None and other["digest"] != res["digest"],
              f"{name}: seed 2 gives another digest", failures)

    for what, prelude in SABOTAGE.items():
        code, res, _ = worker("churn", 1, 0, prelude)
        check(code != 0 and res is not None and not res["correct"]
              and res["e2e"]["failed_ratio"] == 1.0,
              f"forced break ({what}): failed_ratio 1 and exit {code}",
              failures)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, no result", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
