"""Enumeration of rotation-invariant 3D cone ideals (the r = 1 case).

The box is peeled into nested shells: shell i is the set of box points with
all coordinates <= i and at least one equal to i.  A rotation-invariant
ideal meets shell i in the three rotated copies of a single planar ideal
J_i of [0,i]^2 whose top row and right column match (the palindrome
condition).  The layers below i accumulate into per-height cross sections
of [0,i-1]^2, which the search carries down: each chosen layer updates
them in one step read off its heights, and each distinct section is built
and checked once per search.  The forward rule of the plain layers
(:func:`coneideal.slicing.forward_interval`) applied to those sections
puts the admissible J_i between two walks S and T.  The choice
further splits by how far J_i reaches into the last two columns (no reach /
column i-1 only / column i).  Each reach case is a fixed walk pair (L, U)
that depends only on i and p, built once per shell; at a search node the
case's layers are the plain walk interval [S v L, T ^ U].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterator, Literal, Optional, Sequence

from .errors import InconsistentInput, NotAnIdeal
from .order import Params, Point2, Point3, rotate
from .slicing import (
    count_interval, depth_first, enumerate_interval, forward_interval, square_host,
    stack_points,
)
from .walks import (
    Walk,
    empty_walk,
    join,
    largest_avoiding,
    meet,
    smallest_containing,
    walk_from_heights,
    walk_leq,
)


@dataclass
class SymLayerSequence:
    """Shell layers, a tuple: walks[j] bounds the layer of shell j, host [0,j]^2."""

    params: Params
    walks: tuple[Walk, ...]


def shell_points(j: int, w: Walk) -> frozenset[Point3]:
    """The points of shell layer j = w and its two rotations."""
    out: set[Point3] = set()
    for x, y in w.ideal_points():
        u = (x, y, j)
        v = rotate(u)
        out.update((u, v, rotate(v)))
    return frozenset(out)


def assembled_points(seq: SymLayerSequence) -> frozenset[Point3]:
    """3D point set of a shell stack: each layer and its two rotations."""
    return stack_points(seq.walks, shell_points)


def accumulated_walks(seq: SymLayerSequence, i: int) -> list[Walk]:
    """Per-height cross sections of the union of rotated layers 0..i-1:
    entry s is the walk of the z = s section, an ideal of [0,i-1]^2."""
    return list(reduce(partial(_with_shell, built={}), seq.walks[:i], ()))


def _with_shell(sections: tuple[Walk, ...], w: Walk, built: dict) -> tuple[Walk, ...]:
    """The cross sections once layer J_i = w of shell i = len(sections)
    joins them, all on [0,i]^2.

    J_i opens section i with its own heights.  Its two rotated copies put,
    in every section s <= i, column i up to c_s = #{x : J_i[x] >= s} - 1
    and row i over columns 0..J_i[s].  So a new section s < i is a function
    of the key (old section s, J_i[s], c_s), and section i of (w,): each
    key is built and checked once per ``built`` dict, one per search.  A
    key that raises InconsistentInput is not stored, so it raises again,
    for its own s, at every node that reaches it.
    """
    i = len(sections)
    hs = w.hs
    out = []
    col = i  # c_s: the heights do not increase, so one pass finds them all
    for s in range(i + 1):
        while col >= 0 and hs[col] < s:
            col -= 1
        key = (sections[s], hs[s], col) if s < i else (w,)
        found = built.get(key)
        if found is None:
            heights = [*sections[s].hs, col] if s < i else [*hs[:i], max(hs[i], col)]
            # rows go up one at a time: a column below row i - 1 has a gap
            for x in range(hs[s] + 1):
                if heights[x] < i - 1:
                    raise InconsistentInput(f"section {s} has a gap in column {x}")
                heights[x] = i
            try:
                found = walk_from_heights(tuple(heights), square_host(i), w.p)
            except NotAnIdeal as exc:
                msg = f"section {s} heights {heights} are not an ideal"
                raise InconsistentInput(msg) from exc
            built[key] = found
        out.append(found)
    return tuple(out)


def symmetric_bounds(i: int, cum: Sequence[Walk], params: Params) -> tuple[Walk, Walk]:
    """Walk interval [S, T] for shell layer i: the forward rule applied to
    the accumulated sections."""
    return forward_interval(i, cum, square_host(i), params.p)


@lru_cache(maxsize=None)
def _reach_cases(i: int, p: int) -> tuple[tuple[Walk, Walk], ...]:
    """Fixed walk pairs (L, U) of shell i, one per reach case of a layer.

    A layer J of [0,i]^2 is in a case exactly when L <= J <= U: J stops
    before column i-1 (L empty); or J ends in column i-1 at height v and,
    once i >= p, holds (v, i-p); or J reaches column i at height u and its
    top row to column u (the palindrome condition).  The cases are disjoint.
    """
    host = square_host(i)

    def low(*pts: Point2) -> Walk:
        return smallest_containing(list(pts), host, p)

    def high(*pts: Point2) -> Walk:
        return largest_avoiding(list(pts), host, p)

    cases = [(empty_walk(host, p), high((0, i), (i - 1, 0)))]
    for v in range(i + 1):
        lower = low((i - 1, v), (v, i - p)) if i >= p else low((i - 1, v))
        cases.append((lower, high((0, i), (i, 0), (i - 1, v + 1))))
    for u in range(i + 1):
        cases.append((low((u, i), (i, u)), high((u + 1, i), (i, u + 1))))
    # L <= U drops the heights v with p v > (p - 1) i, where L holds (0, i),
    # and v >= p^2, where L reaches column i
    return tuple((lo, hi) for lo, hi in cases if walk_leq(lo, hi))


def _layer_intervals(
    i: int, s_walk: Walk, t_walk: Walk, p: int
) -> Iterator[tuple[Walk, Walk]]:
    """Disjoint nonempty walk intervals covering the consistent shell-i
    layers: [S v L, T ^ U] for each reach case (L, U) of the forward
    interval [S, T].  As L <= U, it is nonempty exactly when S <= T,
    S <= U and L <= T.  Shell 0 has no reach cases: its interval is
    [S, T] itself, the empty and the full layer of [0,0]^2."""
    if not walk_leq(s_walk, t_walk):
        return
    if i == 0:
        yield s_walk, t_walk
        return
    for lower, upper in _reach_cases(i, p):
        if walk_leq(s_walk, upper) and walk_leq(lower, t_walk):
            yield join(s_walk, lower), meet(t_walk, upper)


def enumerate_layer_sym(
    i: int, s_walk: Walk, t_walk: Walk, params: Params
) -> list[Walk]:
    """All consistent shell-i layers, sorted by column heights: a function
    of the forward interval [S, T] of :func:`symmetric_bounds` alone."""
    out = [
        w
        for lower, upper in _layer_intervals(i, s_walk, t_walk, params.p)
        for w in enumerate_interval(lower, upper)
    ]
    out.sort(key=lambda w: w.hs)
    return out


def count_layer_sym(i: int, s_walk: Walk, t_walk: Walk, params: Params) -> int:
    """Number of consistent shell-i layers, a function of the forward
    interval [S, T] of :func:`symmetric_bounds` alone."""
    intervals = _layer_intervals(i, s_walk, t_walk, params.p)
    return sum(count_interval(lo, hi) for lo, hi in intervals)


def enumerate_all_r1(
    params: Params,
    mode: Literal["count", "stream", "groups"] = "count",
    shards: Optional[tuple[int, int]] = None,
):
    """Count or stream every rotation-invariant ideal of the box.

    A search node is its tuple of shell walks with their cross sections,
    which each child updates by one :func:`_with_shell` step, sharing the
    sections built through one dict that lives as long as the search.
    The bounds of shell i read only its last p sections, so the search
    computes them once per distinct window of those; it merges no nodes,
    so every node still builds and checks all its sections.
    Stream mode yields the tuples of shell walks (W_0, ..., W_n), groups
    mode them as (before, walks, ()): the tuples before + (w,), w in walks.
    ``shards`` works as in :func:`coneideal.slicing.depth_first`.
    """
    n, p = params.n, params.p
    built: dict[tuple, Walk] = {}  # this search's sections, see _with_shell

    def interval(depth: int, win: tuple[Walk, ...]) -> tuple[int, Walk, Walk]:
        cum = (None,) * (depth - len(win)) + win  # the sections below it: None
        return (depth, *symmetric_bounds(depth, cum, params))

    def child(depth: int, node: tuple, w: Walk) -> tuple:
        walks, sections = node  # never a leaf, whose sections would bound nothing
        return walks + (w,), _with_shell(sections, w, built)

    def window(depth: int, node: tuple) -> tuple[Walk, ...]:
        # the sections the forward rule reads; the child's sections are new
        # in every height, so nodes are looked up by window, never merged
        return node[1][max(0, depth - p) : depth]

    choices = partial(enumerate_layer_sym, params=params)
    count_of = partial(count_layer_sym, params=params)
    found = depth_first(
        ((), ()), n, interval, choices, child, count_of, mode, shards, window
    )
    if mode == "count":
        return found
    if mode == "groups":
        return ((walks, ws, ()) for (walks, _), ws in found)
    return (walks + (w,) for (walks, _), ws in found for w in ws)
