"""Span tracing for the benchmark, installed from outside the package.

The tracer rebinds module-level functions (and a few methods) of
``coneideal`` to wrappers, in every loaded ``coneideal`` module that holds
the same object, so that a call made through any import path is seen.
Timed wrappers record a span per call (a generator gets one span per
resume); counting wrappers only count calls, so their time stays in the
caller's self time.  Spans are folded into aggregates as they close, keyed
by (parent span name, span name); holding every span of a multi-million
call run in memory is not affordable.  Each operation is one top-level
span with its own id, and keeps the aggregate deltas of the spans it
caused.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

# (module, qualified name, kind): kind is "span", "gen" (generator, timed per
# resume) or "count" (call count only).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("slicing", "backward_bounds", "span"),
    ("slicing", "forward_bounds", "span"),
    ("slicing", "enumerate_interval", "gen"),
    ("slicing", "count_interval", "span"),
    ("slicing", "LayerSequence.with_layer", "count"),
    ("symmetric", "accumulated_walks", "span"),
    ("symmetric", "symmetric_bounds", "span"),
    ("symmetric", "enumerate_layer_sym", "span"),
    ("symmetric", "count_layer_sym", "span"),
    ("walks", "walk_from_heights", "span"),
    ("walks", "walk_of", "span"),
    ("walks", "Walk.heights", "span"),
    ("walks", "ideal_transport", "span"),
    ("walks", "highest_extension", "span"),
    ("walks", "lowest_extension", "span"),
    ("walks", "join_all", "span"),
    ("walks", "meet_all", "span"),
    ("walks", "extremal_walk", "span"),
    ("order", "precedes3", "span"),
    ("fields", "SmallField.__init__", "span"),
    ("fields", "SmallField.add", "count"),
    ("fields", "SmallField.sub", "count"),
    ("fields", "SmallField.neg", "count"),
    ("fields", "SmallField.mul", "count"),
    ("fields", "SmallField.power", "count"),
    ("fields", "SmallField.coordinates", "span"),
    ("codes", "preimage_list", "span"),
    ("codes", "is_invariant_ideal", "span"),
    ("codes", "_power_row", "span"),
    ("codes", "_expand_rows", "span"),
    ("codes", "_rref", "span"),
    ("codes", "verify_invariance", "span"),
    ("codes", "_reduce_against", "count"),
    ("codes", "in_sum_zero_space", "span"),
)

_BOUNDS = ("slicing.backward_bounds", "slicing.forward_bounds")
_SYM_NODES = ("symmetric.enumerate_layer_sym", "symmetric.count_layer_sym")
_CONVERSIONS = ("walks.walk_from_heights", "walks.walk_of", "walks.Walk.heights")
SLICING_LEVELS = 4  # layer indices 0..3 (largest r = 3 instance has n = 3)
SYMMETRIC_LEVELS = 7  # shell indices 0..6 (largest r = 1 instance has n = 6)


class Tracer:
    """Call counts and self times of the TARGETS, per operation."""

    def __init__(self) -> None:
        # stack frames are [child seconds, span name]
        self._stack: list[list[Any]] = [[0.0, "root"]]
        # (parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list[float]] = {}
        # name -> reader of a wrapper's call count
        self.counts: dict[str, Callable[[], int]] = {}
        self.extra: dict[str, float] = {}
        self.ops: list[dict] = []
        self._pending_bounds: set[int] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrappers --

    def _close(self, name: str, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[0] += dt
        key = (parent[1], name)
        st = self.edges.get(key)
        if st is None:
            st = self.edges[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]

    def _span(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stack, close, clock = self._stack, self._close, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - t0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _gen(self, name: str, fn: Callable) -> Callable:
        stack, close, clock = self._stack, self._close, time.perf_counter
        extra = self.extra
        out_key = name + ".walks_out"
        calls = 0

        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1  # on the first resume: the wrapper is a generator too
            it = fn(*args, **kwargs)
            out = 0
            try:
                while True:
                    frame = [0.0, name]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(name, frame, clock() - t0)
                    out += 1
                    yield item
            finally:
                extra[out_key] = extra.get(out_key, 0) + out
                self._interval_done(args[0], out)

        self.counts[name] = lambda: calls
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = 0

        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        self.counts[name] = lambda: calls
        return wrapper

    # -- per-target hooks (run outside the callee's span) --

    def _bump(self, key: str, by: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + by

    def _interval_done(self, lower: Any, produced: int) -> None:
        if id(lower) in self._pending_bounds:
            self._pending_bounds.discard(id(lower))
            if produced == 0:
                self._bump("slicing.empty_intervals")

    def _after(self, name: str) -> Optional[Callable]:
        if name in _BOUNDS:

            def bounds(args, result):
                self._bump(f"slicing.nodes_by_level.{args[0]}")
                self._pending_bounds.add(id(result[0]))

            return bounds
        if name == "slicing.count_interval":
            return lambda args, result: self._interval_done(args[0], result)
        if name in _SYM_NODES:

            def sym(args, result):
                self._bump(f"symmetric.nodes_by_level.{args[0]}")
                if name == "symmetric.enumerate_layer_sym":
                    self._bump(name + ".walks_out", len(result))

            return sym
        if name == "codes._rref":

            def rref(args, result):
                self._bump("codes._rref.rows_in", len(args[1]))
                self._bump("codes._rref.rank", len(result[1]))

            return rref
        return None

    # -- installation --

    def install(self, kinds: tuple[str, ...]) -> None:
        """Rebind every target of the given kinds in every loaded coneideal
        module."""
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "coneideal"]
        for mod_name, qual, kind in TARGETS:
            if kind not in kinds:
                continue
            home = sys.modules[f"coneideal.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, kind))
                continue
            orig = getattr(home, qual)
            wrapped = self._wrap(name, orig, kind)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        if kind == "count":
            return self._count(name, fn)
        if kind == "gen":
            return self._gen(name, fn)
        return self._span(name, fn, self._after(name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- operations --

    def operation(self, op_id: int, name: str, label: str, fn: Callable[[], Any]) -> Any:
        """Run fn as one top-level span; spans it causes share op_id."""
        before = self._snapshot()
        frame = [0.0, name]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._close(name, frame, t1 - t0)
            after = self._snapshot()
            self.ops.append(
                {
                    "id": op_id,
                    "name": name,
                    "label": label,
                    "start": t0,
                    "end": t1,
                    "self_s": t1 - t0 - frame[0],
                    "inner": {
                        k: [a - b for a, b in zip(v, before.get(k, (0, 0, 0)))]
                        for k, v in after.items()
                        if v != before.get(k)
                    },
                }
            )

    def count(self, name: str) -> int:
        read = self.counts.get(name)
        return read() if read is not None else 0

    def _snapshot(self) -> dict[str, tuple]:
        snap = {f"{p}>{n}": tuple(v) for (p, n), v in self.edges.items()}
        snap.update({k: (self.count(k),) for k in self.counts})
        snap.update({k: (v,) for k, v in self.extra.items()})
        return snap

    # -- results --

    def per_name(self) -> dict[str, list[float]]:
        """[calls, self seconds] per span name, summed over parents."""
        out: dict[str, list[float]] = {}
        for (_, name), (calls, _total, self_s) in self.edges.items():
            st = out.setdefault(name, [0, 0.0])
            st[0] += calls
            st[1] += self_s
        return out

    def metrics(self, traced_wall: float, cli_bytes: int) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (zeros included)."""
        spans = self.per_name()
        out: dict[str, float] = {}

        def calls_self(name: str) -> None:
            calls, self_s = spans.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s

        def self_only(name: str) -> None:
            out[f"{name}.self_s"] = spans.get(name, (0, 0.0))[1]

        out["cli.self_s"] = spans.get("cli.main", (0, 0.0))[1]
        out["cli.bytes_out"] = cli_bytes
        for name in _BOUNDS + ("slicing.enumerate_interval", "slicing.count_interval"):
            calls_self(name)
        out["slicing.enumerate_interval.calls"] = self.count(
            "slicing.enumerate_interval"
        )
        out["slicing.enumerate_interval.walks_out"] = self.extra.get(
            "slicing.enumerate_interval.walks_out", 0
        )
        out["slicing.LayerSequence.with_layer.calls"] = self.count(
            "slicing.LayerSequence.with_layer"
        )
        bounds_calls = sum(out[f"{b}.calls"] for b in _BOUNDS)
        out["slicing.empty_interval_ratio"] = (
            self.extra.get("slicing.empty_intervals", 0) / bounds_calls
            if bounds_calls
            else 0.0
        )
        for lvl in range(SLICING_LEVELS):
            key = f"slicing.nodes_by_level.{lvl}"
            out[key] = self.extra.get(key, 0)
        for name in (
            "symmetric.accumulated_walks",
            "symmetric.symmetric_bounds",
            "symmetric.enumerate_layer_sym",
            "symmetric.count_layer_sym",
        ):
            calls_self(name)
        out["symmetric.enumerate_layer_sym.walks_out"] = self.extra.get(
            "symmetric.enumerate_layer_sym.walks_out", 0
        )
        for lvl in range(SYMMETRIC_LEVELS):
            key = f"symmetric.nodes_by_level.{lvl}"
            out[key] = self.extra.get(key, 0)
        for _mod, qual, _kind in TARGETS:
            if _mod == "walks":
                calls_self(f"walks.{qual}")
        conv = sum(spans.get(n, (0, 0.0))[1] for n in _CONVERSIONS)
        out["walks.conversion_share"] = conv / traced_wall if traced_wall else 0.0
        calls_self("order.precedes3")
        calls_self("fields.SmallField.__init__")
        for op in ("add", "sub", "neg", "mul", "power"):
            out[f"fields.SmallField.{op}.calls"] = self.count(
                f"fields.SmallField.{op}"
            )
        calls_self("fields.SmallField.coordinates")
        for stage in (
            "preimage_list",
            "is_invariant_ideal",
            "_power_row",
            "_expand_rows",
            "_rref",
            "verify_invariance",
            "in_sum_zero_space",
        ):
            self_only(f"codes.{stage}")
        out["codes._rref.rows_in"] = self.extra.get("codes._rref.rows_in", 0)
        out["codes._rref.rank"] = self.extra.get("codes._rref.rank", 0)
        out["codes._reduce_against.calls"] = self.count("codes._reduce_against")
        return out
