"""Benchmark of coneideal: enumeration counts, streams and code checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload r3-layers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 --trace 0

One invocation runs one workload in its own process: a single thread and
a closed loop.  Every operation runs once; then the operations are called
again, shortest first, each while its last call still fits in
``--seconds`` of wall time.  A metric sums or rates the per-operation
medians.  ``--all`` runs every workload, each in a fresh child process.

Times are process CPU seconds unless a name says wall.  The program is
single-threaded and CPU-bound, so its CPU time is the work a user waits
for; on a shared machine the wall time of the same round also carries
other tenants' load (up to +15% on a 2-core VM, against about 2% for CPU
time).  Wall time is still reported among the figures.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; the lines above it also report the per-kind figures
(round wall time, count time, stream rate, code latency median and tail,
error rate).  With ``--trace 1`` one untraced round is followed by one
round with spans and one with call counters, and the last line carries the
per-layer metrics plus the tracing overhead.  Every run writes its full
record (environment, per-operation timings, operation spans) to
``.bench_out/``.  ``--toy`` runs every workload at p=2, m=3 for the
benchmark's self-check (``perfbench/selftest.py``).
"""

from __future__ import annotations

import os

# must precede the first numpy import, here or in a child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5  # set-up is timed this many times; the median is reported
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOADS = ("r3-layers", "r1-shells", "verify-sample")

# Set-up a user pays once per instance: importing the package (with the CLI,
# which pulls in numpy) and building the affine generators with their field
# tables.  Each repetition is a fresh interpreter, so no cache carries over.
_SETUP_CHILD = """
import time
t0 = time.process_time()
import coneideal.cli
from coneideal.codes import agl_generators
from coneideal.order import Params
for inst in {instances!r}:
    agl_generators(Params(*inst))
print(time.process_time() - t0)
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _setup_once(instances: list) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD.format(instances=instances)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least 10
    samples beyond it, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            rank = max(1, -(-q * n // 100))
            return q, xs[int(rank) - 1]
    return 50.0, statistics.median(xs)


class Runner:
    """Runs a workload's operations and gates each result."""

    def __init__(self, workload) -> None:
        self.ops = workload.ops
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_out = 0
        self.records: list[dict] = []
        self.seen: dict = {}  # instance -> first ideal count observed

    def run(self, index: int, tracer=None) -> dict:
        """One call of operation ``index``, timed, then checked untimed."""
        op = self.ops[index]
        self.attempted += 1
        error = None
        result = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.operation(self.attempted, op.span, op.name, op.run)
        except Exception as exc:  # counted in error_rate, never raised out
            error = f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
        if error is None:
            try:
                outcome = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                error = outcome.error
                self.bytes_out += outcome.bytes_out
                if outcome.count is not None:
                    first = self.seen.setdefault(op.instance, outcome.count)
                    if error is None and outcome.count != first:
                        error = f"count {outcome.count} disagrees with {first}"
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
        rec = {"index": index, "op": op.name, "kind": op.kind, "cpu_s": cpu,
               "wall_s": wall, "ok": error is None}
        self.records.append(rec)
        return rec

    def round(self, tracer=None) -> list[dict]:
        """Each operation once, in order."""
        return [self.run(i, tracer) for i in range(len(self.ops))]

    def timed(self, seconds: float) -> None:
        """One round, then passes over the operations, shortest first, that
        call each one again while its last call still fits in ``seconds`` of
        wall time.  Short operations so get many samples even when a long one
        fits once.
        """
        start = time.perf_counter()
        last = [r["wall_s"] for r in self.round()]
        while True:
            ran = False
            for i in sorted(range(len(last)), key=last.__getitem__):
                if time.perf_counter() - start + last[i] <= seconds:
                    last[i] = self.run(i)["wall_s"]
                    ran = True
            if not ran:
                return

    def medians(self, key: str = "cpu_s") -> list[float]:
        """Median time of each operation over its calls, in operation order."""
        times: list[list[float]] = [[] for _ in self.ops]
        for rec in self.records:
            times[rec["index"]].append(rec[key])
        return [statistics.median(ts) for ts in times]

    def rate(self, cpu: list[float], kinds: tuple[str, ...]) -> float:
        """Items (streamed ideals or checked codes) per CPU second."""
        idx = [i for i, op in enumerate(self.ops) if op.kind in kinds and op.items]
        return sum(self.ops[i].items for i in idx) / sum(cpu[i] for i in idx)


def total(recs: list[dict], key: str = "cpu_s") -> float:
    return sum(r[key] for r in recs)


def figures(runner: Runner, cpu: list[float]) -> dict:
    """Per-kind figures: count time, stream rate, code latency and rates."""
    kinds = {op.kind for op in runner.ops}
    out: dict = {
        "calls": len(runner.records),
        "error_rate": len(runner.failures) / runner.attempted,
        "wall_s": sum(runner.medians("wall_s")),
    }
    if "count" in kinds:
        out["count_s"] = sum(c for c, op in zip(cpu, runner.ops) if op.kind == "count")
    if "stream" in kinds:
        out["stream_ideals_per_s"] = runner.rate(cpu, ("stream",))
    if "code" in kinds:
        code_ms = [r["cpu_s"] * 1e3 for r in runner.records if r["kind"] == "code"]
        out["codes_per_s"] = runner.rate(cpu, ("code",))
        out["code_p50_ms"] = statistics.median(code_ms)
        out["code_tail_percentile"], out["code_tail_ms"] = tail(code_ms)
        out["code_samples"] = len(code_ms)
    return out


FIGURE_UNITS = {
    "wall_s": "s", "count_s": "s", "stream_ideals_per_s": "1/s",
    "codes_per_s": "1/s", "code_p50_ms": "ms", "code_tail_ms": "ms",
    "error_rate": "ratio",
}


def run_workload(args) -> int:
    if not (SRC / "coneideal" / "__init__.py").is_file():
        print(f"coneideal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for k in ("end_to_end", "per_layer") for m in bench[k]}
    units.update(FIGURE_UNITS)
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")

    # -- set-up, outside every timed round --
    draw_s = []
    for _ in range(SETUP_REPS if args.trace == 0 else 1):
        c0 = time.process_time()
        wl = workloads.build(args.workload, args.seed, args.toy, str(OUT_DIR))
        draw_s.append(time.process_time() - c0)
    print(f"workload {args.workload}: {len(wl.ops)} operations")

    runner = Runner(wl)
    record: dict = {"workload": args.workload, "seed": args.seed, "toy": args.toy,
                    "seconds": args.seconds, "trace": args.trace, "env": env}
    if args.trace == 0:
        child = [_setup_once(wl.code_instances) for _ in range(SETUP_REPS)]
        runner.timed(args.seconds)
        cpu = runner.medians()
        metrics = {
            "setup_s": statistics.median(child) + statistics.median(draw_s),
            "cpu_s": sum(cpu),
            "items_per_s": runner.rate(cpu, ("stream", "code")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        figs = figures(runner, cpu)
        for key, value in list(metrics.items()) + list(figs.items()):
            print(f"{key} = {value:.6g} {units.get(key, '')}".rstrip())
        record["figures"] = figs
        if wl.probe is not None:
            probe = wl.probe()
            record["known_defect_probe"] = probe
            status = "FAILED" if probe["failed"] else "passed"
            print(f"known-defect probe {probe['op']}: {status} "
                  f"{json.dumps(probe)[:300]}")
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        base = runner.round()
        tracer = spans.Tracer()
        # spans first; call counting runs in a round of its own so that the
        # counters' cost (tens of millions of field operations) lands in no
        # span's self time
        tracer.install(("span", "gen"))
        try:
            runner.bytes_out = 0
            traced = runner.round(tracer)
        finally:
            tracer.uninstall()
        cli_bytes = runner.bytes_out
        tracer.install(("count",))
        try:
            runner.round()  # no operation spans: this round's times are not used
        finally:
            tracer.uninstall()
        traced_wall = total(traced, "wall_s")
        layer = tracer.metrics(traced_wall, cli_bytes)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_ratio"] = total(traced) / total(base) - 1.0
        for key in sorted(layer):
            print(f"{key} = {layer[key]:.6g} {units.get(key, '')}".rstrip())
        record["spans"] = {
            "ops": tracer.ops,
            "edges": [[p, n, *v] for (p, n), v in sorted(tracer.edges.items())],
        }
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    record["operations"] = runner.records
    record["failures"] = runner.failures
    for line in runner.failures:
        print(f"FAILED {line}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": out_metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh child process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="p=2, m=3 self-check")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
