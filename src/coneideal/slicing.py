"""Enumeration of all 3D cone ideals of {0..n}^3 by slicing along z (r = 3).

A 3D ideal is a stack of planar ideals J_0,...,J_n of U = [0,n]^2 whose
union of slabs is downward closed in the 3D order.  Given the layers above
height i (backward) or below it (forward), the admissible J_i form a walk
interval [lower, upper]:

* the lower bound joins the neighbouring layer's walk with cone transports
  of the layers p and alpha steps away, where alpha is the largest offset
  1..p-1 whose layer is nonempty;
* the upper bound is the inverse transport of the neighbouring layer's walk
  (and, in the forward direction, of the layers p and beta steps back,
  where beta is the largest offset 1..p-1 whose layer is not full).

An undefined term (offset out of range, or no alpha/beta) is simply left
out of the join/meet.  The forward rule also serves the r = 1 engine, whose
walks below height i are the cross sections under a shell.  Both transports
are computed on their target by :mod:`coneideal.walks`.  Interval
enumeration and counting are column sweeps that share one rule for the
heights a column admits; enumeration lists the height profiles in
lexicographic order, which makes the output stream canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import groupby
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, Literal, Optional, Sequence, TypeVar
)

from .errors import BoundsInverted
from .order import Params, Point3
from .walks import (
    TRANSPORT_MEMOS,
    Rect,
    Walk,
    empty_walk,
    full_walk,
    highest_extension,
    ideal_transport,
    join_all,
    meet_all,
    transport_upper_bound,
    walk_leq,
)

Direction = Literal["backward", "forward"]


@lru_cache(maxsize=None)
def square_host(n: int) -> Rect:
    """The rectangle [0,n]^2, built once per n, not at every search node:
    the transport memos key on their target host, and a lookup finds the
    same object by identity."""
    return Rect(0, n, 0, n)


@dataclass(slots=True)
class LayerSequence:
    """Partial assignment of layer walks in n + 1 slots, None while
    unassigned: the view of a window that the bounds read.  They only
    index ``walks``, so a dict of the assigned layers serves them too.  A
    search builds one per distinct window; its nodes are plain tuples."""

    params: Params
    walks: tuple[Optional[Walk], ...] | dict[int, Walk] = field(default_factory=dict)

    def with_layer(self, i: int, w: Walk) -> "LayerSequence":
        """The sequence with layer i set to w; no search calls it, and the
        benchmark's span list names it (ROADMAP item 5)."""
        return LayerSequence(self.params, self.walks[:i] + (w,) + self.walks[i + 1 :])


def nonempty_lookahead(i: int, seq: LayerSequence) -> Optional[int]:
    """Largest t with 1 <= t <= p-1, i+t <= n and layer i+t nonempty."""
    p, n = seq.params.p, seq.params.n
    for t in range(min(p - 1, n - i), 0, -1):
        if not seq.walks[i + t].is_empty:
            return t
    return None


def nonfull_lookback(i: int, below: Sequence[Walk], p: int) -> Optional[int]:
    """Largest t with 1 <= t <= p-1, i-t >= 0 and walk i-t below not full."""
    for t in range(min(p - 1, i), 0, -1):
        if not below[i - t].is_full:
            return t
    return None


def backward_bounds(i: int, seq: LayerSequence, params: Params) -> tuple[Walk, Walk]:
    """Walk interval for layer i given backward-consistent layers i+1..n."""
    p, n = params.p, params.n
    u = square_host(n)
    walks = seq.walks
    if i >= n:
        return empty_walk(u, p), full_walk(u, p)
    lower_terms = [walks[i + 1]]
    if i + p <= n:
        lower_terms.append(ideal_transport(walks[i + p], 1, 0, u))
    t = nonempty_lookahead(i, seq)
    if t is not None:
        lower_terms.append(ideal_transport(walks[i + t], 1, -p * p + p * t, u))
    upper = transport_upper_bound(walks[i + 1], 0, -p, u)
    return join_all(lower_terms), upper


def forward_interval(
    i: int, below: Sequence[Walk], host: Rect, p: int
) -> tuple[Walk, Walk]:
    """The forward rule: walk interval over host for height i given the
    walks below[0..i-1] of the heights under it.

    The walks below may live on a smaller host than the target (the r = 1
    cross sections of [0,i-1]^2 under shell i of [0,i]^2); on a common host
    the highest extension of walk i-1 is walk i-1 itself.
    """
    if i <= 0:
        return empty_walk(host, p), full_walk(host, p)
    lower = ideal_transport(below[i - 1], 0, -p, host)
    upper_terms = [highest_extension(below[i - 1], host)]
    if i >= p:
        upper_terms.append(transport_upper_bound(below[i - p], 1, 0, host))
    t = nonfull_lookback(i, below, p)
    if t is not None:
        upper_terms.append(
            transport_upper_bound(below[i - t], 1, -p * p + p * t, host)
        )
    return lower, meet_all(upper_terms)


def forward_bounds(i: int, seq: LayerSequence, params: Params) -> tuple[Walk, Walk]:
    """Walk interval for layer i given forward-consistent layers 0..i-1."""
    return forward_interval(i, seq.walks, square_host(params.n), params.p)


class _ColumnRule(dict):
    """The admissible heights of one column of a sweep between two walks,
    keyed on the heights (prev, back) of the previous column and of the one
    p places to the left (None near the left edge), each worked out on its
    first lookup.  They lie in [lo, hi], at most prev and at least
    prev - p^2.  No run below the top edge is wider than p columns, so
    while ``back`` is below the top edge the column is lower or empty."""

    __slots__ = ("lo", "hi", "c", "d", "p2")

    def __init__(self, lo: int, hi: int, host: Rect, p: int):
        super().__init__()
        self.lo, self.hi, self.c, self.d, self.p2 = lo, hi, host.c, host.d, p * p

    def __missing__(self, key: tuple[Optional[int], Optional[int]]) -> range:
        prev, back = key
        vmin, vmax = self.lo, self.hi
        if prev is not None:
            vmax = prev if prev < vmax else vmax
            vmin = prev - self.p2 if prev - self.p2 > vmin else vmin
        if back is not None and back < self.d and back <= vmax:
            vmax = max(back, self.c) - 1
        found = self[key] = range(vmin, vmax + 1)
        return found


def column_rules(lower: Walk, upper: Walk) -> list[_ColumnRule]:
    """The rules of the columns of one sweep between lower and upper."""
    host, p = lower.host, lower.p
    return [_ColumnRule(lo, hi, host, p) for lo, hi in zip(lower.hs, upper.hs)]


def sweep_profiles(rules: Sequence[_ColumnRule], p: int) -> list[tuple[int, ...]]:
    """Every height profile the column rules admit, in lex order: each
    prefix is extended by its admissible heights in increasing order, and
    each choice keeps the profile closed."""
    profiles = [(v,) for v in rules[0][None, None]]
    for x in range(1, len(rules)):
        rule, back = rules[x], x - p
        profiles = [
            hs + (v,)
            for hs in profiles
            for v in rule[hs[-1], hs[back] if back >= 0 else None]
        ]
    return profiles


def enumerate_interval(lower: Walk, upper: Walk) -> Iterator[Walk]:
    """Every walk between lower and upper, in column-height lex order, built
    from the closed profiles of :func:`sweep_profiles` without re-validation."""
    if not walk_leq(lower, upper):
        raise BoundsInverted(f"heights {lower.hs} above {upper.hs}")
    host, p = lower.host, lower.p
    for hs in sweep_profiles(column_rules(lower, upper), p):
        yield Walk(host, p, hs)


def count_interval(lower: Walk, upper: Walk) -> int:
    """Number of walks between lower and upper: a column sweep that keeps,
    for each tuple of the last p heights, the number of prefixes ending
    in it (the admissible heights of a column depend on those alone)."""
    if not walk_leq(lower, upper):
        raise BoundsInverted(f"heights {lower.hs} above {upper.hs}")
    p, rules = lower.p, column_rules(lower, upper)
    ways = {(v,): 1 for v in rules[0][None, None]}
    for x in range(1, len(rules)):
        rule, folded = rules[x], {}
        for last, times in ways.items():
            for v in rule[last[-1], last[0] if x >= p else None]:
                key = (last + (v,))[-p:]
                folded[key] = folded.get(key, 0) + times
        ways = folded
    return sum(ways.values())


State = TypeVar("State")


def depth_first(
    root: State,
    last: int,
    interval: Callable[[int, Hashable], tuple],
    choices: Callable[..., Iterable[Walk]],
    child: Callable[[int, State, Walk], State],
    count_of: Callable[..., int],
    mode: Literal["count", "stream", "groups"],
    shards: Optional[tuple[int, int]],
    window: Callable[[int, State], Hashable],
    slide: Optional[Callable[[int, Hashable, Walk], Hashable]] = None,
):
    """The search shared by both engines: count the leaves of a depth-first
    tree whose levels are 0..last, or stream them grouped by parent.

    A node at a level has the window ``window(depth, state)`` and the key
    ``interval(depth, window)`` of its choices: the key sees the window,
    never the node, so nodes of one level with equal windows have the same
    key.  Each engine reads the window through a view of a node whose other
    slots are None, so bounds that read past a window raise.
    ``choices(*key)`` lists a node's choices in stream order, and its
    children are ``child(depth, state, w)`` for each listed w.  Both modes
    stop at level ``last`` and build no leaf: a stream (any mode but
    "count") yields each node of that level with its memoized listing, and
    a count sums ``count_of(*key)``, the number of such a node's choices.
    With ``shards = (index, total)`` the tree is first expanded breadth-first
    until a level holds at least 4 * total nodes, and only the nodes of that
    level at positions congruent to index modulo total are explored; if
    level ``last`` holds fewer, its (state, w) pairs are split so instead.

    Given ``slide`` as well, ``slide(depth, window, w)`` is the window of
    ``child(depth, state, w)``; nodes of one level with equal windows then
    have the same number of leaves below them, and a count is a
    transfer-matrix sum.  From the level the shards start at, it carries
    only the number of nodes that have each window and moves it from level
    to level with ``slide``, building no node; its answer is the sum over
    the last level of that number times the window's count.  Any other
    search visits every node, depth-first.

    Memo scope: one call.  The listing and the count are pure functions of
    the key, so the call runs ``choices`` and ``count_of`` once per distinct
    key, and equal walks listed anywhere in the search are one object (so
    a walk's cached JSON text serves them all).  A depth-first
    search looks up each node's listing, or its count at level ``last``, in
    one dict per level keyed on the window, so it computes the key once per
    distinct (depth, window); a merged count meets each window once.  The
    transport memos of :mod:`coneideal.walks` are emptied as the call
    starts, so no search reuses a value computed by another.
    """
    for memo in TRANSPORT_MEMOS:
        memo.cache_clear()
    shared: dict[Walk, Walk] = {}

    @cache
    def listed(key: tuple) -> tuple:
        return tuple(shared.setdefault(w, w) for w in choices(*key))

    @cache
    def counted(key: tuple) -> int:
        return count_of(*key)

    def by_window(of: Callable[[tuple], Any]) -> Callable[[int, State], Any]:
        seen: list[dict] = [{} for _ in range(last + 1)]  # per level: window -> of

        def lookup(depth: int, state: State) -> Any:
            level, win = seen[depth], window(depth, state)
            found = level.get(win)
            if found is None:
                found = level[win] = of(interval(depth, win))
            return found

        return lookup

    listing = by_window(listed)

    def expand(depth: int, states: Iterable[State]) -> Iterator[State]:
        return (
            child(depth, state, w) for state in states for w in listing(depth, state)
        )

    depth, level = 0, [root]
    if shards is not None:
        index, total = shards
        while len(level) < 4 * total and depth < last:
            level = list(expand(depth, level))
            depth += 1
        if len(level) < 4 * total:  # split the leaves, as (state, w) pairs
            pairs = [(s, w) for s in level for w in listing(last, s)][index::total]
            if mode == "count":
                return len(pairs)
            runs = groupby(pairs, lambda pair: pair[0])  # regrouped by state
            return ((s, tuple(w for _, w in run)) for s, run in runs)
        level = level[index::total]
    if mode == "count" and slide is not None:
        merged: dict[Hashable, int] = {}  # window -> the nodes that have it
        for state in level:
            win = window(depth, state)
            merged[win] = merged.get(win, 0) + 1
        for d in range(depth, last):
            below: dict[Hashable, int] = {}
            while merged:  # a level is freed as its windows slide
                win, times = merged.popitem()
                for w in listed(interval(d, win)):
                    kid = slide(d, win, w)
                    below[kid] = below.get(kid, 0) + times
            merged = below
        return sum(
            times * counted(interval(last, win)) for win, times in merged.items()
        )
    # chained generators walk the tree depth-first; no function refers to
    # itself, so the memos are freed as soon as the search is dropped
    nodes = iter(level)
    for d in range(depth, last):
        nodes = expand(d, nodes)
    if mode == "count":
        count = by_window(counted)
        return sum(count(last, state) for state in nodes)
    return ((state, listing(last, state)) for state in nodes)


def enumerate_all_r3(
    params: Params,
    mode: Literal["count", "stream", "groups"] = "count",
    direction: Direction = "backward",
    shards: Optional[tuple[int, int]] = None,
):
    """Count or stream every 3D ideal of the box, layer by layer.

    Stream mode yields tuples of walks indexed by z = 0..n.  Groups mode
    yields, per last-level node, (before, walks, after): the stacks
    before + (w,) + after for w in walks, layer 0 new going backward.  With
    ``shards = (index, total)`` only one shard of the search tree is
    explored (see :func:`depth_first`).  The bounds of layer i read only
    the p layers next to it on the assigned side, so a stream lists the
    layers once per distinct window of those layers, and a count carries
    only the number of nodes of a level that have each window (a
    transfer-matrix sum).
    """
    levels = list(range(params.n, -1, -1))
    if direction == "forward":
        levels.reverse()
    bounds = backward_bounds if direction == "backward" else forward_bounds

    def interval(depth: int, win: tuple[Walk, ...]) -> tuple[Walk, Walk]:
        # the window's layers in their slots, every other slot None
        i = levels[depth]
        start = i + 1 if direction == "backward" else i - len(win)
        return bounds(i, LayerSequence(params, (None,) * start + win), params)

    # a node is the tuple of its assigned walks in z order: layers i+1..n
    # (backward) or 0..i-1 (forward), so a leaf is the stack as it stands
    p, backward = params.p, direction == "backward"

    def child(depth: int, node: tuple[Walk, ...], w: Walk) -> tuple[Walk, ...]:
        return (w,) + node if backward else node + (w,)

    def window(depth: int, node: tuple[Walk, ...]) -> tuple[Walk, ...]:
        # the assigned layers the bounds of layer i read; the layers after
        # it read only these and the layers assigned below this node
        return node[:p] if backward else node[-p:]

    def slide(depth: int, win: tuple[Walk, ...], w: Walk) -> tuple[Walk, ...]:
        # the window of the child that assigns w to layer i
        return window(depth + 1, child(depth, win, w))

    found = depth_first(
        (), params.n, interval, enumerate_interval, child, count_interval,
        mode, shards, window, slide,
    )
    if mode == "count":
        return found
    if mode == "groups":
        return (((), ws, node) if backward else (node, ws, ()) for node, ws in found)
    return (child(params.n, node, w) for node, ws in found for w in ws)


def layer_points(z: int, w: Walk) -> frozenset[Point3]:
    """The points of layer z = w of a stack."""
    return frozenset([(x, y, z) for x, y in w.ideal_points()])


def stack_points(walks: Sequence[Walk], points_of: Callable) -> frozenset[Point3]:
    """The points of a stack: the union of the sets points_of(j, walks[j])."""
    return frozenset().union(*map(points_of, range(len(walks)), walks))


def layers_to_points(layers: tuple[Walk, ...]) -> frozenset[Point3]:
    """3D point set of a full layer stack."""
    return stack_points(layers, layer_points)
