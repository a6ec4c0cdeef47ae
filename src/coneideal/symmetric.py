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
reach / column i-1 only / column i), each case cut down to plain walk
intervals by extremal walks through the forced endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .errors import InconsistentInput, NotAnIdeal
from .order import Params, Point3, rotate
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
    extremal_walk,
    full_walk,
    join_all,
    largest_avoiding,
    meet_all,
    restrict,
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


def _inner_candidates(
    s_walk: Walk, t_walk: Walk, i: int, p: int
) -> Optional[tuple[Walk, Walk]]:
    host = shell_host(i)
    if s_walk.contains((0, i)) or s_walk.contains((i - 1, 0)):
        return None
    top_cap = largest_avoiding((0, i), host, p)
    right_cap = largest_avoiding((i - 1, 0), host, p)
    upper = meet_all([t_walk, top_cap, right_cap])
    return s_walk, upper


def _edge_candidates(
    s_walk: Walk, t_walk: Walk, i: int, v: int, p: int
) -> Optional[tuple[Walk, Walk]]:
    host = shell_host(i)
    inner = Rect(0, i - 1, 0, i)
    if p * v > (p - 1) * i or v >= p * p:
        return None
    if not t_walk.contains((i - 1, v)) or s_walk.contains((i - 1, v + 1)):
        return None
    if i >= p and not t_walk.contains((v, i - p)):
        return None
    through = (
        extremal_walk(host, (v, i - p), "lowest-through", p)
        if i >= p
        else empty_walk(host, p)
    )
    low_end = extremal_walk(inner, (i - 1, v), "lowest-end", p)
    high_end = extremal_walk(inner, (i - 1, v), "highest-end", p)
    top_cap = largest_avoiding((0, i), host, p)
    lower = join_all([restrict(join_all([s_walk, through]), inner), low_end])
    upper = meet_all([restrict(meet_all([t_walk, top_cap]), inner), high_end])
    return lower, upper


def _corner_candidates(
    s_walk: Walk, t_walk: Walk, i: int, u: int, p: int
) -> Optional[tuple[Walk, Walk]]:
    host = shell_host(i)
    if not t_walk.contains((i, u)) or not t_walk.contains((u, i)):
        return None
    if s_walk.contains((i, u + 1)) or s_walk.contains((u + 1, i)):
        return None
    low_start = extremal_walk(host, (u, i), "lowest-start", p)
    low_end = extremal_walk(host, (i, u), "lowest-end", p)
    high_start = extremal_walk(host, (u, i), "highest-start", p)
    high_end = extremal_walk(host, (i, u), "highest-end", p)
    lower = join_all([s_walk, low_start, low_end])
    upper = meet_all([t_walk, high_start, high_end])
    return lower, upper


def _layer_intervals(
    i: int, cum: list[Walk], params: Params
) -> Iterator[tuple[Walk, Walk, bool]]:
    """Disjoint walk intervals covering the consistent shell-i layers.

    Yields (lower, upper, pad_last_column): when the flag is set the
    interval lives on [0,i-1] x [0,i] and each walk is completed by an
    empty column i (the column-(i-1) reach case).
    """
    p = params.p
    s_walk, t_walk = symmetric_bounds(i, cum, params)
    got = _inner_candidates(s_walk, t_walk, i, p)
    if got is not None:
        yield got[0], got[1], False
    if not s_walk.contains((0, i)) and not s_walk.contains((i, 0)):
        for v in range(min(p * p, i + 1)):
            got = _edge_candidates(s_walk, t_walk, i, v, p)
            if got is not None:
                yield got[0], got[1], True
    for u in range(i + 1):
        got = _corner_candidates(s_walk, t_walk, i, u, p)
        if got is not None:
            yield got[0], got[1], False


def enumerate_layer_sym(i: int, cum: list[Walk], params: Params) -> list[Walk]:
    """All shell-i layers consistent with the accumulated sections, sorted
    by column heights."""
    if i == 0:
        host = shell_host(0)
        return [empty_walk(host, params.p), full_walk(host, params.p)]
    p = params.p
    host = shell_host(i)
    out: list[Walk] = []
    for lower, upper, pad in _layer_intervals(i, cum, params):
        if not walk_leq(lower, upper):
            continue
        for w in enumerate_interval(lower, upper):
            if pad:
                hs = w.hs + (host.c - 1,)
                out.append(walk_from_heights(hs, host, p))
            else:
                out.append(w)
    out.sort(key=lambda w: w.hs)
    return out


def count_layer_sym(i: int, cum: list[Walk], params: Params) -> int:
    if i == 0:
        return 2
    total = 0
    for lower, upper, _tail in _layer_intervals(i, cum, params):
        if walk_leq(lower, upper):
            total += count_interval(lower, upper)
    return total


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

    def count_last(depth: int, seq: SymLayerSequence) -> int:
        return count_layer_sym(depth, accumulated_walks(seq, depth), params)

    found = depth_first(
        SymLayerSequence(params, []), params.n, children, count_last, mode, shards
    )
    if mode == "count":
        return found
    return (tuple(seq.walks) for seq in found)
