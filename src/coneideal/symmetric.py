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
puts the admissible J_i between two walks S and T.  A reach rule on how
far J_i reaches into its last two columns picks the layers among them; it
reads only column i and counts of the columns before it, so the layers
are one column sweep of [S, T] that applies the rule at column i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Literal, Optional, Sequence

from .errors import InconsistentInput, NotAnIdeal
from .order import Params, Point3, rotate
from .slicing import (
    column_rules, depth_first, forward_interval, square_host, stack_points,
    sweep_profiles,
)
from .walks import Walk, walk_from_heights


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


def _reach_heights(i: int, allowed: range, k: int, edge: bool) -> tuple[int, ...]:
    """The heights of column i of a shell-i layer, among those ``allowed`` by
    the column rule, that the reach rule keeps, given that k of the first i
    columns h[0..i-1] are at height i.  h[i] = u >= 0 needs h[u] = i and
    (u = i or h[u + 1] < i), the palindrome condition: u = k - 1, or u = i
    when k = i.  An empty column i needs k = 0 and ``edge``: v < 0 or
    i < p or h[v] >= i - p (the point (v, i - p)), where v = h[i - 1]."""
    if k == 0:
        return (-1,) if edge and -1 in allowed else ()
    return tuple(u for u in ((k - 1, i) if k == i else (k - 1,)) if u in allowed)


def enumerate_layer_sym(
    i: int, s_walk: Walk, t_walk: Walk, params: Params
) -> list[Walk]:
    """All consistent shell-i layers, sorted by column heights: a function
    of the forward interval [S, T] of :func:`symmetric_bounds` alone.  One
    column sweep of [S, T], whose last column keeps the heights of
    :func:`_reach_heights`; shell 0 keeps all of [S, T]."""
    host, p = s_walk.host, params.p
    rules = column_rules(s_walk, t_walk)
    if i == 0:
        return [Walk(host, p, hs) for hs in sweep_profiles(rules, p)]
    last, edge_row, out = rules[i], i - p, []
    for hs in sweep_profiles(rules[:i], p):
        k, v = hs.count(i), hs[-1]  # v <= h[0] < i when k = 0
        edge = not k and (v < 0 or edge_row < 0 or hs[v] >= edge_row)
        allowed = last[v, hs[edge_row] if edge_row >= 0 else None]
        for u in _reach_heights(i, allowed, k, edge):
            out.append(Walk(host, p, hs + (u,)))
    return out


def count_layer_sym(i: int, s_walk: Walk, t_walk: Walk, params: Params) -> int:
    """Number of consistent shell-i layers, a function of the forward
    interval [S, T] of :func:`symmetric_bounds` alone: one count sweep.
    Its state is the last p heights (the last one while i < p, as no column
    then reads back) and two counters: the columns at height i and those at
    height >= i - p.  The heights do not increase, so h[v] >= i - p holds
    exactly when more than v columns are that high."""
    p = params.p
    rules = column_rules(s_walk, t_walk)
    if i == 0:
        return len(rules[0][None, None])
    keep, edge_row = p if i >= p else 1, i - p
    ways = {((v,), v == i, v >= edge_row): 1 for v in rules[0][None, None]}
    for x in range(1, i):
        rule, folded = rules[x], {}
        for (hs, k, high), times in ways.items():
            for v in rule[hs[-1], hs[0] if x >= p else None]:
                key = ((hs + (v,))[-keep:], k + (v == i), high + (v >= edge_row))
                folded[key] = folded.get(key, 0) + times
        ways = folded
    last, total = rules[i], 0
    for (hs, k, high), times in ways.items():
        allowed = last[hs[-1], hs[0] if i >= p else None]
        edge = hs[-1] < 0 or edge_row < 0 or high > hs[-1]
        total += times * len(_reach_heights(i, allowed, k, edge))
    return total


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
