"""The benchmark workloads: operations, pinned answers and their checks.

Each operation is one call into a public entry point of ``coneideal``:
``cli.main``, ``enumerate_all_r3``/``enumerate_all_r1``, or one code built
and checked the way ``cmd_verify`` does (``build_code``,
``verify_invariance``, ``in_sum_zero_space``).  Every check runs outside
the timed region and returns an error message instead of raising.

Why these workloads:

* ``r3-layers`` runs the r = 3 engine: ``slicing`` bounds and interval
  enumeration, ``walks``, and ``cli`` JSON encoding.  It touches no
  ``symmetric``, ``fields`` or ``codes`` code.
* ``r1-shells`` runs the r = 1 engine: ``symmetric`` shell accumulation and
  walk conversions.  It uses ``slicing`` only for interval enumeration and
  counting, never for bounds, so a change to the shared interval code that
  helps one engine and hurts the other shows as a difference between the
  two enumeration workloads.
* ``verify-sample`` runs the code pipeline (``fields``, ``codes``,
  ``order.precedes3``) on a seeded sample of ideals; the engines only
  produce the sample, during set-up.  Codes of length 512 (p=2, m=9) are
  left out: one of them takes more than ten minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from coneideal import cli, codes
from coneideal.order import Params
from coneideal.slicing import enumerate_all_r3, layers_to_points
from coneideal.symmetric import SymLayerSequence, assembled_points, enumerate_all_r1

Instance = tuple[int, int, int]  # (p, m, r)


@dataclass
class Outcome:
    """What a check found: the ideal count it observed and any error."""

    count: Optional[int] = None
    error: Optional[str] = None
    bytes_out: int = 0


@dataclass
class Op:
    """One timed operation and its untimed check."""

    name: str
    kind: str  # "count", "stream" or "code"
    instance: Instance
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    items: int = 0  # ideals streamed or codes checked, for the rate
    span: str = "cli.main"  # name of the operation's top-level span


@dataclass
class Workload:
    """Operations of one workload, the instances whose affine generators its
    set-up builds, and an untimed known-defect probe."""

    ops: list[Op]
    code_instances: list[Instance] = field(default_factory=list)
    probe: Optional[Callable[[], dict]] = None


def _argv(inst: Instance) -> list[str]:
    p, m, r = inst
    return ["enumerate", "--p", str(p), "--m", str(m), "--r", str(r)]


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_count(inst: Instance, expected: int) -> Op:
    argv = _argv(inst) + ["--count-only"]

    def check(result: tuple[int, str]) -> Outcome:
        rc, text = result
        if rc != 0:
            return Outcome(error=f"exit code {rc}")
        got = int(text.strip())
        err = None if got == expected else f"count {got}, expected {expected}"
        return Outcome(count=got, error=err, bytes_out=len(text.encode()))

    return Op(f"cli count r={inst[2]} p={inst[0]} m={inst[1]}", "count", inst,
              lambda: _call_cli(argv), check)


def library_count(inst: Instance, expected: int, direction: str) -> Op:
    params = Params(*inst)

    def check(got: int) -> Outcome:
        err = None if got == expected else f"count {got}, expected {expected}"
        return Outcome(count=got, error=err)

    return Op(
        f"enumerate_all_r3 {direction} count p={inst[0]} m={inst[1]}",
        "count",
        inst,
        lambda: enumerate_all_r3(params, mode="count", direction=direction),
        check,
        span="slicing.enumerate_all_r3",
    )


def cli_stream(
    inst: Instance, fmt: str, expected: int, sha256: str, out_dir: str
) -> Op:
    path = os.path.join(out_dir, f"stream-{inst[0]}-{inst[1]}-{inst[2]}-{fmt}.jsonl")
    argv = _argv(inst) + ["--format", fmt, "--emit", path]

    def check(result: tuple[int, str]) -> Outcome:
        rc, _ = result
        if rc != 0:
            return Outcome(error=f"exit code {rc}")
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        lines = data.count(b"\n")
        digest = hashlib.sha256(data).hexdigest()
        err = None
        if lines != expected:
            err = f"{lines} ideals streamed, expected {expected}"
        elif digest != sha256:
            err = f"stream sha256 {digest}, expected {sha256}"
        return Outcome(count=lines, error=err, bytes_out=len(data))

    return Op(f"cli stream {fmt} r={inst[2]} p={inst[0]} m={inst[1]}", "stream",
              inst, lambda: _call_cli(argv), check, items=expected)


def code_op(ideal: frozenset, inst: Instance, gens: list, label: str) -> Op:
    """Build one code and check it as ``cmd_verify`` does."""
    params = Params(*inst)
    p, m, _ = inst

    def run() -> tuple[int, int, bool, bool]:
        spec = codes.build_code(ideal, params)
        invariant = codes.verify_invariance(spec, gens)
        proper = codes.in_sum_zero_space(spec)
        return spec.dimension, spec.defining_count, invariant, proper

    def check(result: tuple[int, int, bool, bool]) -> Outcome:
        dim, defining, invariant, proper = result
        if not invariant:
            return Outcome(error="code is not affine invariant")
        if proper != (len(ideal) > 0):
            return Outcome(error="sum-zero dichotomy fails")
        # rank from row reduction against the count from digit compositions
        if dim != p**m - defining:
            return Outcome(error=f"dimension {dim} != {p**m} - {defining}")
        return Outcome()

    return Op(f"code {label}", "code", inst, run, check, items=1, span="code")


def source_ideals(inst: Instance) -> list[frozenset]:
    params = Params(*inst)
    if inst[2] == 3:
        return [layers_to_points(ls) for ls in enumerate_all_r3(params, mode="stream")]
    return [
        assembled_points(SymLayerSequence(params, list(ws)))
        for ws in enumerate_all_r1(params, mode="stream")
    ]


def draw_sample(
    sources: tuple[tuple[int, int, int, int], ...], seed: int
) -> list[tuple[Instance, int, frozenset]]:
    """Seeded sample of (instance, index, ideal), independent of stream order.

    Each source's ideals are sorted by their sorted point list, then
    (stably) by defining-set size, which sets a code's cost: the rows to
    reduce and the rank both equal it.  The size order is cut into k equal
    strata; from each, the seed draws one ideal among those whose size is
    the stratum's median size.  Per-code cost spans three orders of
    magnitude, so a draw not matched on size would let the seed, not the
    program, set the wall time; matched, the seed still changes which
    ideals are checked.
    """
    rng = random.Random(seed)
    out = []
    for p, m, r, k in sources:
        inst = (p, m, r)
        params = Params(*inst)
        pts = sorted(sorted(s) for s in source_ideals(inst))
        size = [codes.preimage_count(frozenset(ps), params) for ps in pts]
        order = sorted(range(len(pts)), key=size.__getitem__)
        n = len(order)
        if k >= n:
            picks = list(range(n))
        else:
            wanted: dict[int, int] = {}  # size -> strata asking for it
            for j in range(k):
                mid = order[(n * j // k + n * (j + 1) // k - 1) // 2]
                wanted[size[mid]] = wanted.get(size[mid], 0) + 1
            picks = []
            for d, t in sorted(wanted.items()):
                same = [i for i in order if size[i] == d]
                picks.extend(sorted(rng.sample(same, t)))
        out.extend((inst, i, frozenset(pts[i])) for i in picks)
    return out


def r1_probe(inst: Instance) -> dict:
    """Stream an r = 1 instance to its end and report how it ends."""
    produced = 0
    try:
        for _ in enumerate_all_r1(Params(*inst), mode="stream"):
            produced += 1
    except Exception as exc:  # the probe reports any failure, never raises
        return {"op": f"enumerate_all_r1 stream p={inst[0]} m={inst[1]}",
                "failed": True, "ideals_before_failure": produced,
                "exception": f"{type(exc).__name__}: {exc}"}
    return {"op": f"enumerate_all_r1 stream p={inst[0]} m={inst[1]}",
            "failed": False, "ideals": produced}


# Pinned answers, measured at the commit that added this benchmark.  The r = 3
# count at p=2, m=9 is also cross-checked every round: backward CLI count,
# forward library count and stream length must agree.
R3_P2M9 = (2, 9, 3)
PINS = {
    "full": {
        "r3": [
            ("count", R3_P2M9, 38562, None),
            ("forward", R3_P2M9, 38562, None),
            ("jsonl", R3_P2M9, 38562,
             "bf95e172d5d6875d823ecf50a24817fd7d7f81df875291a1cd1110a223d63be8"),
            ("points", (3, 3, 3), 980,
             "19f1ba2affdad416bacc3ac9340a189254e8cc988c5e118d8f3db210bae35b27"),
        ],
        "r1": [
            ("count", (3, 9, 1), 479444, None),
            ("jsonl", (2, 15, 1), 5236,
             "010de67543fbe2ce60d96835c1b307361e59993690f2fcf7d237b1e4eaf01e92"),
            ("points", (5, 3, 1), 1452,
             "7f30dd8d3c49416c882ac76f692085e072f060df28bd5b8e244916d25f65f488"),
        ],
        # (p, m, r, ideals drawn)
        "sources": ((3, 3, 1, 20), (3, 3, 3, 30), (2, 6, 1, 6), (2, 6, 3, 6),
                    (5, 3, 1, 3)),
        # known defect at the commit that added this benchmark: the stream
        # raises InconsistentInput after 26 938 ideals
        "probe": (2, 18, 1),
    },
    "toy": {
        "r3": [
            ("count", (2, 3, 3), 20, None),
            ("forward", (2, 3, 3), 20, None),
            ("jsonl", (2, 3, 3), 20,
             "ee6371e0fe8ccfae0bfe9d0a453c47be796ac5578c4402f030229be0da7a277b"),
            ("points", (2, 3, 3), 20,
             "f99617d03d1e1395c46fb288c64bac7fc72b72cee6e82b8e851c6e74cd803f93"),
        ],
        "r1": [
            ("count", (2, 3, 1), 5, None),
            ("jsonl", (2, 3, 1), 5,
             "7d3a3dbeee826238c03e5db474ac316af050e7a936d1c81133d303bb531f688a"),
            ("points", (2, 3, 1), 5,
             "218476a444b192e0da715775204de72f5a5b3c02c622103ce6790bd17a2fdf30"),
        ],
        "sources": ((2, 3, 1, 5), (2, 3, 3, 6)),
        "probe": None,
    },
}


def _enumeration_ops(pins: list, out_dir: str) -> list[Op]:
    ops = []
    for what, inst, expected, sha in pins:
        if what == "count":
            ops.append(cli_count(inst, expected))
        elif what == "forward":
            ops.append(library_count(inst, expected, "forward"))
        else:
            ops.append(cli_stream(inst, what, expected, sha, out_dir))
    return ops


def build(name: str, seed: int, toy: bool, out_dir: str) -> Workload:
    """Set up a workload: everything a run needs before timing starts."""
    pins = PINS["toy" if toy else "full"]
    if name == "r3-layers":
        return Workload(_enumeration_ops(pins["r3"], out_dir))
    if name == "r1-shells":
        probe_inst = pins["probe"]
        probe = (lambda: r1_probe(probe_inst)) if probe_inst else None
        return Workload(_enumeration_ops(pins["r1"], out_dir), probe=probe)
    if name == "verify-sample":
        instances = [src[:3] for src in pins["sources"]]
        gens = {inst: codes.agl_generators(Params(*inst)) for inst in instances}
        ops = [
            code_op(ideal, inst, gens[inst], f"{inst} #{idx}")
            for inst, idx, ideal in draw_sample(pins["sources"], seed)
        ]
        return Workload(ops, code_instances=instances)
    raise ValueError(f"unknown workload {name!r}")
