"""Enumeration of rotation-invariant 3D cone ideals (the r = 1 case).

The box is peeled into nested shells: shell i is the set of box points with
all coordinates <= i and at least one equal to i.  A rotation-invariant
ideal meets shell i in the three rotated copies of a single planar ideal
J_i of [0,i]^2 whose top row and right column match (the palindrome
condition).  After accumulating the layers below i into per-height cross
sections of [0,i-1]^2, the admissible J_i again live between two walks
S and T; the choice further splits by how far J_i reaches into the last
two columns (no reach / column i-1 only / column i), each case cut down to
plain walk intervals by extremal walks through the forced endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Literal, Optional

from .errors import InconsistentInput, NotAnIdeal
from .order import Params, Point3, precedes3, rotate
from .slicing import (
    count_interval,
    depth_first,
    enumerate_interval,
    transport_upper_bound,
)
from .walks import (
    IdealSet2,
    Rect,
    Walk,
    empty_walk,
    extremal_walk,
    full_walk,
    ideal_transport,
    join_all,
    largest_avoiding,
    meet_all,
    restrict,
    walk_from_heights,
    walk_leq,
    walk_of,
)


class LayerReach(IntEnum):
    """How far a shell layer reaches into its last two columns."""

    INNER = 1  # nothing at x >= i-1
    EDGE = 2  # column i-1 touched, column i empty
    CORNER = 3  # column i touched


@dataclass
class SymLayerSequence:
    """Shell layers: walks[j] bounds the layer of shell j, host [0,j]^2."""

    params: Params
    walks: list[Walk]


def shell_host(i: int) -> Rect:
    return Rect(0, i, 0, i)


def classify_reach(w: Walk, i: int) -> LayerReach:
    """Column-reach class of a layer ideal of [0,i]^2."""
    hs = w.hs
    c = w.host.c
    if hs[-1] >= c:
        return LayerReach.CORNER
    if i >= 1 and hs[-2] >= c:
        return LayerReach.EDGE
    return LayerReach.INNER


def is_palindromic(w: Walk, i: int) -> bool:
    """Top-row occupancy equals right-column occupancy."""
    hs = w.hs
    top = max((x for x in range(i + 1) if hs[x] == i), default=-1)
    right = hs[i] if hs[i] >= 0 else -1
    return top == right


def rotations_of_layer(w: Walk, j: int) -> frozenset[Point3]:
    """Union of the three rotated copies of a shell layer in 3D."""
    pts = []
    for x, y in w.ideal_points():
        u = (x, y, j)
        pts.append(u)
        u = rotate(u)
        pts.append(u)
        pts.append(rotate(u))
    return frozenset(pts)


def assembled_points(seq: SymLayerSequence) -> frozenset[Point3]:
    out: set[Point3] = set()
    for j, w in enumerate(seq.walks):
        out |= rotations_of_layer(w, j)
    return frozenset(out)


def accumulate_layers(seq: SymLayerSequence, i: int) -> list[IdealSet2]:
    """Per-height cross sections of the union of rotated layers 0..i-1.

    Entry j is the z = j section, an ideal of [0,i-1]^2: the layer J_j plus
    the points contributed by rotations of the higher layers.
    """
    host = Rect(0, i - 1, 0, i - 1)
    sections: list[set[tuple[int, int]]] = [set() for _ in range(i)]
    for j2 in range(i):
        hs = seq.walks[j2].hs
        c = seq.walks[j2].host.c
        for x in range(j2 + 1):
            h = hs[x]
            if h < c:
                continue
            for y in range(c, h + 1):
                sections[j2].add((x, y))
                sections[x].add((y, j2))  # image under one rotation
                sections[y].add((j2, x))  # image under two rotations
    return [IdealSet2(host, frozenset(s)) for s in sections]


def accumulated_walks(seq: SymLayerSequence, i: int) -> list[Walk]:
    p = seq.params.p
    out = []
    for s in accumulate_layers(seq, i):
        try:
            out.append(walk_of(s, p))
        except NotAnIdeal as exc:
            raise InconsistentInput(f"cross section {s} is not an ideal") from exc
    return out


def nonfull_lookback_sym(i: int, cum: list[Walk], params: Params) -> Optional[int]:
    """Largest t with 1 <= t <= p-1, i-t >= 0, section i-t not full."""
    for t in range(min(params.p - 1, i), 0, -1):
        if not cum[i - t].is_full:
            return t
    return None


def symmetric_bounds(i: int, cum: list[Walk], params: Params) -> tuple[Walk, Walk]:
    """Walk interval [S, T] for shell layer i from the accumulated sections."""
    p = params.p
    host = shell_host(i)
    lower = ideal_transport(cum[i - 1], 0, -p, host)
    upper_terms = [transport_upper_bound(cum[i - 1], 0, 0, host)]
    if i >= p:
        upper_terms.append(transport_upper_bound(cum[i - p], 1, 0, host))
    t = nonfull_lookback_sym(i, cum, params)
    if t is not None:
        upper_terms.append(
            transport_upper_bound(cum[i - t], 1, -p * p + p * t, host)
        )
    return lower, meet_all(upper_terms)


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


def is_consistent_sym(
    i: int,
    candidate: Walk,
    seq: SymLayerSequence,
    method: Literal["full", "reduced"] = "full",
) -> bool:
    """Set-level test that candidate extends the shell stack at level i.

    The full method evaluates the palindrome condition, the downward and
    upward transport inclusions against every accumulated section, and the
    two rotated-cone inclusions.  The reduced method drops the first rotated
    inclusion (implied) and replaces the second by the max-row/max-column
    comparison that is equivalent once the rest holds.
    """
    params = seq.params
    p = params.p
    if i == 0:
        return True
    if not is_palindromic(candidate, i):
        return False
    cum_sets = accumulate_layers(seq, i)
    cum_walks = accumulated_walks(seq, i)
    corners = list(candidate.points)
    hs = candidate.hs

    # candidate pushed down to every lower section
    for j in range(i):
        sec = cum_sets[j].points
        for x in range(i):
            for y in range(i):
                if (x, y) in sec:
                    continue
                if any(
                    precedes3((x, y, j), (cx, cy, i), p) for cx, cy in corners
                ):
                    return False
    # every lower section pushed up to the candidate
    for j in range(i):
        sec_corners = list(cum_walks[j].points)
        for x in range(i + 1):
            for y in range(i + 1):
                if candidate.contains((x, y)):
                    continue
                if any(
                    precedes3((x, y, i), (cx, cy, j), p) for cx, cy in sec_corners
                ):
                    return False

    if method == "reduced":
        if i >= p:
            right_top = hs[i - 1]
            if right_top >= 0:
                row = max(
                    (x for x in range(i + 1) if hs[x] >= i - p), default=-1
                )
                if right_top > row:
                    return False
        return True

    # rotated-cone inclusions, checked literally on the two rotated shells
    for alpha in range(i + 1):
        for gamma in range(i + 1):
            if any(
                precedes3((alpha, i, gamma), (cx, cy, i), p) for cx, cy in corners
            ):
                if not candidate.contains((gamma, alpha)):
                    return False
    for beta in range(i + 1):
        for gamma in range(i + 1):
            if any(
                precedes3((i, beta, gamma), (cx, cy, i), p) for cx, cy in corners
            ):
                if not candidate.contains((beta, gamma)):
                    return False
    return True


def enumerate_all_r1(
    params: Params,
    mode: Literal["count", "stream"] = "count",
    shards: Optional[tuple[int, int]] = None,
):
    """Count or stream every rotation-invariant ideal of the box.

    Stream mode yields tuples of shell walks (W_0, ..., W_n).
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
