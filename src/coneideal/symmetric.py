"""Enumeration of rotation-invariant 3D cone ideals (the r = 1 case).

The box is peeled into nested shells: shell i is the set of box points with
all coordinates <= i and at least one equal to i.  A rotation-invariant
ideal meets shell i in the three rotated copies of a single planar ideal
J_i of [0,i]^2 whose top row and right column match (the palindrome
condition).  The layers below i accumulate into per-height cross sections
of [0,i-1]^2, read straight off the shell heights, and the forward rule of
the plain layers (:func:`coneideal.slicing.forward_interval`) applied to
those sections puts the admissible J_i between two walks S and T.  The
choice further splits by how far J_i reaches into the last two columns (no
reach / column i-1 only / column i).  Each reach case is a fixed walk pair
(L, U) that depends only on i and p, built once per shell; at a search node
the case's layers are the plain walk interval [S v L, T ^ U].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Literal, Optional

from .errors import InconsistentInput, NotAnIdeal
from .order import Params, Point2, Point3, rotate
from .slicing import (
    count_interval,
    depth_first,
    enumerate_interval,
    forward_interval,
)
from .walks import (
    Rect,
    Walk,
    empty_walk,
    full_walk,
    join,
    largest_avoiding,
    meet,
    meet_all,
    smallest_containing,
    walk_from_heights,
    walk_leq,
)


@dataclass
class SymLayerSequence:
    """Shell layers: walks[j] bounds the layer of shell j, host [0,j]^2."""

    params: Params
    walks: list[Walk]


def shell_host(i: int) -> Rect:
    return Rect(0, i, 0, i)


def assembled_points(seq: SymLayerSequence) -> frozenset[Point3]:
    """3D point set of a shell stack: each layer and its two rotations."""
    out: set[Point3] = set()
    for j, w in enumerate(seq.walks):
        for x, y in w.ideal_points():
            u = (x, y, j)
            v = rotate(u)
            out.update((u, v, rotate(v)))
    return frozenset(out)


def accumulated_walks(seq: SymLayerSequence, i: int) -> list[Walk]:
    """Per-height cross sections of the union of rotated layers 0..i-1.

    Entry s is the walk of the z = s section, an ideal of [0,i-1]^2, read
    off the shell heights hss[j] of the layers: column x holds

    * rows 0..hss[s][x] of the layer J_s itself (x <= s),
    * rows 0..#{x' : hss[x][x'] >= s} - 1, the rotated layer J_x (x >= s),
    * row j for every j >= s with hss[j][s] >= x, the other rotation of J_j.

    Raises InconsistentInput when a column has a gap or the heights are not
    a closed profile.
    """
    p = seq.params.p
    host = Rect(0, i - 1, 0, i - 1)
    hss = [w.hs for w in seq.walks[:i]]
    # rot[x][s] = #{x' : hss[x][x'] >= s} - 1, row s of the transposed layer x
    rot = [[sum(v >= s for v in hs) - 1 for s in range(len(hs))] for hs in hss]
    out = []
    for s in range(i):
        heights = list(hss[s]) + [rot[x][s] for x in range(s + 1, i)]
        heights[s] = max(heights[s], rot[s][s])
        # row j spans columns 0..hss[j][s]; rows go up one at a time, so a
        # column below row j - 1 here has a gap
        for j in range(s, i):
            for x in range(hss[j][s] + 1):
                if heights[x] < j - 1:
                    raise InconsistentInput(f"section {s} has a gap in column {x}")
                if heights[x] < j:
                    heights[x] = j
        try:
            out.append(walk_from_heights(tuple(heights), host, p))
        except NotAnIdeal as exc:
            raise InconsistentInput(
                f"section {s} heights {heights} are not an ideal"
            ) from exc
    return out


def symmetric_bounds(i: int, cum: list[Walk], params: Params) -> tuple[Walk, Walk]:
    """Walk interval [S, T] for shell layer i: the forward rule applied to
    the accumulated sections."""
    return forward_interval(i, cum, shell_host(i), params.p)


@lru_cache(maxsize=None)
def _reach_cases(i: int, p: int) -> tuple[tuple[Walk, Walk], ...]:
    """Fixed walk pairs (L, U) of shell i, one per reach case of a layer.

    A layer J of [0,i]^2 is in a case exactly when L <= J <= U: J stops
    before column i-1 (L empty); or J ends in column i-1 at height v and,
    once i >= p, holds (v, i-p); or J reaches column i at height u and its
    top row to column u (the palindrome condition).  The cases are disjoint.
    """
    host = shell_host(i)

    def low(pt: Point2) -> Walk:
        return smallest_containing(pt, host, p)

    def high(*pts: Point2) -> Walk:
        return meet_all([largest_avoiding(pt, host, p) for pt in pts])

    cases = [(empty_walk(host, p), high((0, i), (i - 1, 0)))]
    for v in range(i + 1):
        lower = low((i - 1, v))
        if i >= p:
            lower = join(lower, low((v, i - p)))
        cases.append((lower, high((0, i), (i, 0), (i - 1, v + 1))))
    for u in range(i + 1):
        cases.append((join(low((u, i)), low((i, u))), high((u + 1, i), (i, u + 1))))
    # L <= U drops the heights v with p v > (p - 1) i, where L holds (0, i),
    # and v >= p^2, where L reaches column i
    return tuple((lo, hi) for lo, hi in cases if walk_leq(lo, hi))


def _layer_intervals(
    i: int, s_walk: Walk, t_walk: Walk, p: int
) -> Iterator[tuple[Walk, Walk]]:
    """Disjoint nonempty walk intervals covering the consistent shell-i
    layers: [S v L, T ^ U] for each reach case (L, U) of the forward
    interval [S, T].  As L <= U, it is nonempty exactly when S <= T,
    S <= U and L <= T."""
    if not walk_leq(s_walk, t_walk):
        return
    for lower, upper in _reach_cases(i, p):
        if walk_leq(s_walk, upper) and walk_leq(lower, t_walk):
            yield join(s_walk, lower), meet(t_walk, upper)


def enumerate_layer_sym(i: int, cum: list[Walk], params: Params) -> list[Walk]:
    """All shell-i layers consistent with the accumulated sections, sorted
    by column heights."""
    if i == 0:
        host = shell_host(0)
        return [empty_walk(host, params.p), full_walk(host, params.p)]
    s_walk, t_walk = symmetric_bounds(i, cum, params)
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
    if i == 0:
        return 2
    intervals = _layer_intervals(i, s_walk, t_walk, params.p)
    return sum(count_interval(lo, hi) for lo, hi in intervals)


def enumerate_all_r1(
    params: Params,
    mode: Literal["count", "stream"] = "count",
    shards: Optional[tuple[int, int]] = None,
):
    """Count or stream every rotation-invariant ideal of the box.

    Stream mode yields tuples of shell walks (W_0, ..., W_n); ``shards``
    works as in :func:`coneideal.slicing.depth_first`.
    """

    def children(depth: int, seq: SymLayerSequence) -> Iterator[SymLayerSequence]:
        cum = accumulated_walks(seq, depth) if depth else []
        return (
            SymLayerSequence(params, seq.walks + [w])
            for w in enumerate_layer_sym(depth, cum, params)
        )

    def interval(depth: int, seq: SymLayerSequence) -> tuple[int, Walk, Walk]:
        cum = accumulated_walks(seq, depth)
        return (depth, *symmetric_bounds(depth, cum, params))

    root = SymLayerSequence(params, [])
    count_of = partial(count_layer_sym, params=params)
    found = depth_first(root, params.n, children, interval, count_of, mode, shards)
    if mode == "count":
        return found
    return (tuple(seq.walks) for seq in found)
