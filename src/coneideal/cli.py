"""Command-line surface: enumerate, defining-set, verify and render.

Exit codes: 0 success, 2 invalid parameters or unparseable input, 3 size cap
exceeded, 4 input set is not an invariant ideal, 5 verification failure or
an engine's failed internal consistency check, 141 stdout closed by its
reader (as ``| head``) before the output ended.
All diagnostics go to stderr; machine output (JSONL, counts, listings,
drawings) goes to stdout or the --emit path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, Optional, Sequence, TextIO

# one BLAS thread unless the caller asks for more: set before numpy loads,
# as the float64 products of ``codes`` gain no wall time from more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .codes import (
    DEFAULT_SCAN_CAP,
    agl_generators,
    build_code,
    in_sum_zero_space,
    preimage_count,
    preimage_list,
    verify_invariance,
    violated_condition,
)
from .errors import (
    CapExceeded,
    ConeIdealError,
    InconsistentInput,
    NotInvariant,
    OutOfRange,
)
from .fields import DEFAULT_FIELD_CAP, shared_field
from .order import Params
from .render import ascii_layers, svg_cubes
from .slicing import enumerate_all_r3, layer_points, stack_points
from .symmetric import enumerate_all_r1, shell_points

EXIT_BAD_PARAMS = 2
EXIT_CAP = 3
EXIT_NOT_IDEAL = 4
EXIT_VERIFY_FAILED = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a process killed by it
EMIT_BUFFER = 1 << 20  # bytes: a large stream reaches its file in few writes


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _params(args: argparse.Namespace) -> Params:
    try:
        return Params(p=args.p, m=args.m, r=args.r)
    except OutOfRange as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"invalid parameters: {exc}")


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


@contextmanager
def _emit(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --emit file, closed on exit, or stdout, left open."""
    if not args.emit:
        yield sys.stdout
        return
    try:
        out = open(args.emit, "w", encoding="utf-8", buffering=EMIT_BUFFER)
    except OSError as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"cannot write {args.emit}: {exc}")
    with out:
        yield out


def _shards(args: argparse.Namespace) -> Optional[tuple[int, int]]:
    if args.shards < 1 or not 0 <= args.shard < args.shards:
        raise _CliError(
            EXIT_BAD_PARAMS, "need --shards >= 1 and 0 <= --shard < --shards"
        )
    return (args.shard, args.shards) if args.shards > 1 else None


def _engine(params: Params) -> tuple[Callable, str, Callable]:
    """The engine for params.r: its search, the JSONL key of the walks it
    emits, and the 3D point set of the layer of index j of an emitted walk
    tuple, whose union over j is the ideal (:func:`stack_points`)."""
    if params.r == 3:
        return enumerate_all_r3, "layers", layer_points
    return enumerate_all_r1, "sym_layers", shell_points


def points_renderer(n: int, points_of: Callable) -> Callable[..., Iterator[str]]:
    """For one stream over the box {0..n}^3: the function of a group of
    stacks ``before + (w,) + after``, w in walks, that yields for each w
    the text of ``json.dumps(sorted(stack_points(stack, points_of)))``.

    Point (x, y, z) is coded as the integer (x*N + y)*N + z with N = n + 1,
    the index of its text in a table built here, so the codes sort in the
    order of the tuples.  Each distinct (index, walk) layer is turned into
    codes once, the shared layers' codes are joined once per group, and a
    line joins the table texts of its sorted codes."""
    size = n + 1
    side = range(size)
    texts = [f"[{x}, {y}, {z}]" for x in side for y in side for z in side]

    @cache
    def codes(j: int, w) -> frozenset[int]:
        return frozenset([(x * size + y) * size + z for x, y, z in points_of(j, w)])

    def render(before: Sequence, walks, after: Sequence) -> Iterator[str]:
        j, stack = len(before), enumerate((*before, None, *after))
        base = frozenset().union(*[codes(k, w) for k, w in stack if k != j])
        for w in walks:
            yield "[" + ", ".join([texts[c] for c in sorted(base | codes(j, w))]) + "]"

    return render


def cmd_enumerate(args: argparse.Namespace) -> int:
    params = _params(args)
    shards = _shards(args)
    search, key, points_of = _engine(params)
    if args.count_only:
        with _emit(args) as out:
            out.write(f"{search(params, mode='count', shards=shards)}\n")
        return 0
    # json.dumps of {"p", "m", "r", key[, "points"]} from cached walk texts
    head = json.dumps({"p": params.p, "m": params.m, "r": params.r, key: []})[:-2]
    points = points_renderer(params.n, points_of) if args.format == "points" else None
    with _emit(args) as out:
        # the stacks of a group share all walks but the new one
        for before, walks, after in search(params, mode="groups", shards=shards):
            left = head + "".join([w.json_text + ", " for w in before])
            right = "".join([", " + w.json_text for w in after]) + "]"
            if points:
                for w, text in zip(walks, points(before, walks, after)):
                    out.write(f'{left}{w.json_text}{right}, "points": {text}}}\n')
            elif walks:
                right += "}\n"
                body = (right + left).join([w.json_text for w in walks])
                out.write("".join([left, body, right]))
    return 0


def _load_ideal(path: str) -> frozenset[tuple[int, int, int]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pts = data["points"] if isinstance(data, dict) else data
        if any(type(c) is not int for u in pts for c in u):
            raise ValueError("coordinates must be JSON integers")
        return frozenset((x, y, z) for x, y, z in pts)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _CliError(EXIT_BAD_PARAMS, f"cannot parse ideal file: {exc}")


def _load_invariant_ideal(path: str, params: Params) -> frozenset[tuple[int, int, int]]:
    ideal = _load_ideal(path)
    reason = violated_condition(ideal, params)
    if reason is not None:
        raise _CliError(EXIT_NOT_IDEAL, f"input is not an invariant ideal: {reason}")
    return ideal


def cmd_defining_set(args: argparse.Namespace) -> int:
    params = _params(args)
    ideal = _load_invariant_ideal(args.ideal, params)
    count = preimage_count(ideal, params)
    with _emit(args) as out:
        out.write(f"{count}\n")
        try:
            for s in preimage_list(ideal, params, cap=args.cap_scan):
                out.write(f"{s}\n")
        except CapExceeded as exc:
            print(f"list suppressed: {exc}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args)
    # both caps, before an ideal is read or listed
    shared_field(params.p, params.m, cap=args.cap_field).subfield(params.r)
    gens = agl_generators(params, cap_field=args.cap_field)
    if args.ideal:
        ideals = [_load_invariant_ideal(args.ideal, params)]
    else:
        search, _, points_of = _engine(params)
        layer = cache(points_of)  # each distinct (index, walk) layer built once
        ideals = (stack_points(ws, layer) for ws in search(params, mode="stream"))
    failures = checked = 0
    for idx, ideal in enumerate(ideals):
        checked += 1
        try:
            spec = build_code(ideal, params, cap_field=args.cap_field)
        except NotInvariant as exc:
            print(f"{idx}\tFAIL\tnot an invariant ideal: {exc}")
            failures += 1
            continue
        invariant = verify_invariance(spec, gens)
        proper = in_sum_zero_space(spec)
        dichotomy = proper == (len(ideal) > 0)
        ok = invariant and dichotomy
        failures += 0 if ok else 1
        print(
            f"{idx}\t{'PASS' if ok else 'FAIL'}\tdim={spec.dimension}"
            f"\tdefining={spec.defining_count}"
            f"\tinvariant={'yes' if invariant else 'NO'}"
            f"\tsum-zero-dichotomy={'yes' if dichotomy else 'NO'}"
        )
    print(f"{checked - failures}/{checked} PASS", file=sys.stderr)
    return 0 if failures == 0 else EXIT_VERIFY_FAILED


def cmd_render(args: argparse.Namespace) -> int:
    params = _params(args)
    ideal = _load_invariant_ideal(args.ideal, params)
    with _emit(args) as out:
        if args.render == "svg":
            out.write(svg_cubes(ideal, params))
        else:
            out.write(ascii_layers(ideal, params))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneideal",
        description="Enumerate invariant cone ideals and the matching codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        sp: argparse.ArgumentParser, ideal_arg: bool = False, emit: bool = True
    ) -> None:
        sp.add_argument("--p", type=int, required=True, help="prime")
        sp.add_argument("--m", type=int, required=True, help="exponent, 3 | m")
        sp.add_argument("--r", type=int, default=3, choices=(1, 3))
        if emit:
            sp.add_argument("--emit", default=None, help="output path (default stdout)")
        if ideal_arg:
            sp.add_argument("ideal", help="JSON file with a 3D point list")

    sp = sub.add_parser("enumerate", help="list or count all invariant ideals")
    common(sp)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--format", choices=("jsonl", "points"), default="jsonl")
    sp.add_argument("--shards", type=int, default=1)
    sp.add_argument("--shard", type=int, default=0)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("defining-set", help="exponent set of an ideal's code")
    common(sp, ideal_arg=True)
    sp.add_argument("--cap-scan", type=int, default=DEFAULT_SCAN_CAP)
    sp.set_defaults(fn=cmd_defining_set)

    sp = sub.add_parser("verify", help="build codes and check group invariance")
    common(sp, emit=False)
    sp.add_argument("--cap-field", type=int, default=DEFAULT_FIELD_CAP)
    sp.add_argument("--ideal", default=None, help="verify one ideal file only")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("render", help="draw an ideal")
    common(sp, ideal_arg=True)
    sp.add_argument("--render", choices=("ascii", "svg"), default="ascii")
    sp.set_defaults(fn=cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # flush at exit cannot raise again (the note on SIGPIPE in the
        # ``signal`` module docs), and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _CliError as exc:
        return _fail(exc.code, str(exc))
    except CapExceeded as exc:
        return _fail(EXIT_CAP, str(exc))
    except InconsistentInput as exc:
        return _fail(EXIT_VERIFY_FAILED, f"internal consistency check failed: {exc}")
    except ConeIdealError as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))


if __name__ == "__main__":
    sys.exit(main())
