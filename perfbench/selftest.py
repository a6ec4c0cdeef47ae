"""Self-check of the benchmark: every workload in toy mode (p=2, m=3).

Run from the repository root:

    python3 perfbench/selftest.py

Checks BENCHMARK.json's shape, runs each workload with ``--toy`` traced and
untraced, and checks the result line's schema and metric names and units.
Finally checks that the benchmark fails, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd: Path, workload: str, trace: int, toy: bool = True):
    cmd = list(BENCH["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ] + (["--toy"] if toy else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(line: str, trace: int) -> list[str]:
    errors = []
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append(f"not correct: {res.get('failed')} failed")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"attempted {res.get('attempted')!r}")
    spec = BENCH["end_to_end" if trace == 0 else "per_layer"]
    want = {m["name"]: m["unit"] for m in spec}
    got = res.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{name}: value {value!r}")
        elif trace == 0 and not value > 0:
            errors.append(f"{name}: end-to-end value {value} is not positive")
        if entry.get("unit") != want.get(name):
            errors.append(f"{name}: unit {entry.get('unit')!r}, want {want.get(name)!r}")
    return errors


def main() -> int:
    failures = []
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in BENCH[k]]
    if len(names) != len(set(names)):
        failures.append("BENCHMARK.json: metric names repeat")
    if "setup_s" not in {m["name"] for m in BENCH["end_to_end"]}:
        failures.append("BENCHMARK.json: no setup_s")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{workload} trace={trace}: exit {proc.returncode}"
                                f"\n{proc.stderr}")
                continue
            for err in check_result(lines[-1], trace):
                failures.append(f"{workload} trace={trace}: {err}")
            print(f"{workload} trace={trace}: checked")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, WORKLOADS[0], 0, toy=False)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        failures.append("benchmark did not fail without the package sources")
    shutil.rmtree(bare)
    print("bare directory: checked")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
