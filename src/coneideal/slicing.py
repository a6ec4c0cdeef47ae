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
enumeration and counting share one rule for the heights a column admits;
enumeration recurses over column heights in lexicographic order, which
makes the output stream canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Literal, Optional, TypeVar

from .errors import BoundsInverted
from .order import Params
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


def layer_host(params: Params) -> Rect:
    n = params.n
    return Rect(0, n, 0, n)


@dataclass
class LayerSequence:
    """Partial assignment of layer walks, built from one end of the stack."""

    params: Params
    walks: dict[int, Walk] = field(default_factory=dict)

    def walk(self, i: int) -> Walk:
        return self.walks[i]

    def with_layer(self, i: int, w: Walk) -> "LayerSequence":
        new = dict(self.walks)
        new[i] = w
        return LayerSequence(self.params, new)


def nonempty_lookahead(i: int, seq: LayerSequence) -> Optional[int]:
    """Largest t with 1 <= t <= p-1, i+t <= n and layer i+t nonempty."""
    p, n = seq.params.p, seq.params.n
    for t in range(min(p - 1, n - i), 0, -1):
        if not seq.walks[i + t].is_empty:
            return t
    return None


def nonfull_lookback(
    i: int, below: dict[int, Walk] | list[Walk], p: int
) -> Optional[int]:
    """Largest t with 1 <= t <= p-1, i-t >= 0 and walk i-t below not full."""
    for t in range(min(p - 1, i), 0, -1):
        if not below[i - t].is_full:
            return t
    return None


def backward_bounds(i: int, seq: LayerSequence, params: Params) -> tuple[Walk, Walk]:
    """Walk interval for layer i given backward-consistent layers i+1..n."""
    p, n = params.p, params.n
    u = layer_host(params)
    if i >= n:
        return empty_walk(u, p), full_walk(u, p)
    lower_terms = [seq.walk(i + 1)]
    if i + p <= n:
        lower_terms.append(ideal_transport(seq.walk(i + p), 1, 0, u))
    t = nonempty_lookahead(i, seq)
    if t is not None:
        lower_terms.append(
            ideal_transport(seq.walk(i + t), 1, -p * p + p * t, u)
        )
    upper = transport_upper_bound(seq.walk(i + 1), 0, -p, u)
    return join_all(lower_terms), upper


def forward_interval(
    i: int, below: dict[int, Walk] | list[Walk], host: Rect, p: int
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
    return forward_interval(i, seq.walks, layer_host(params), params.p)


def _profile_choices(
    x_rel: int,
    prev: Optional[int],
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    host: Rect,
    p: int,
    back: Optional[int],
) -> range:
    """Admissible heights for one column given the previous column and the
    column ``back`` p places to the left (None near the left edge).  No run
    below the top edge is wider than p columns, so while ``back`` is below
    the top edge the column is lower than ``back`` or empty."""
    c = host.c
    p2 = p * p
    vmin = lo[x_rel]
    vmax = hi[x_rel]
    if prev is not None:
        vmax = min(vmax, prev)
        if prev - p2 >= c:
            vmin = max(vmin, prev - p2)
    if back is not None and back < host.d:
        vmax = min(vmax, max(back, c) - 1)
    return range(vmin, vmax + 1)


def enumerate_interval(lower: Walk, upper: Walk) -> Iterator[Walk]:
    """Every walk between lower and upper, in column-height lex order.

    Each column choice keeps the profile closed, so the walks are built
    from their heights without re-validation.
    """
    if not walk_leq(lower, upper):
        raise BoundsInverted(f"heights {lower.hs} above {upper.hs}")
    host, p = lower.host, lower.p
    lo, hi = lower.hs, upper.hs
    width = host.width
    acc: list[int] = []

    def rec(x: int) -> Iterator[Walk]:
        if x == width:
            yield Walk(host, p, tuple(acc))
            return
        prev = acc[x - 1] if x > 0 else None
        back = acc[x - p] if x >= p else None
        for v in _profile_choices(x, prev, lo, hi, host, p, back):
            acc.append(v)
            yield from rec(x + 1)
            acc.pop()

    yield from rec(0)


def count_interval(lower: Walk, upper: Walk) -> int:
    """Number of walks between lower and upper (memoized column DP)."""
    if not walk_leq(lower, upper):
        raise BoundsInverted(f"heights {lower.hs} above {upper.hs}")
    host, p = lower.host, lower.p
    lo, hi = lower.hs, upper.hs
    width = host.width
    cache: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(x: int, window: tuple[int, ...]) -> int:
        # window holds the last min(x, p) chosen heights
        if x == width:
            return 1
        key = (x, window)
        hit = cache.get(key)
        if hit is not None:
            return hit
        prev = window[-1] if window else None
        back = window[0] if x >= p else None
        total = 0
        for v in _profile_choices(x, prev, lo, hi, host, p, back):
            total += rec(x + 1, (window + (v,))[-p:])
        cache[key] = total
        return total

    return rec(0, ())


State = TypeVar("State")


def depth_first(
    root: State,
    last: int,
    children: Callable[[int, State], Iterable[State]],
    interval: Callable[[int, State], tuple],
    count_of: Callable[..., int],
    mode: Literal["count", "stream"],
    shards: Optional[tuple[int, int]],
):
    """The search shared by both engines: count or stream the leaves of a
    depth-first tree whose levels are 0..last.

    ``children(depth, state)`` lists the states one level down, in stream
    order; a stream yields the states reached below level ``last``.  A count
    stops one level early: each node at level ``last`` computes the key
    ``interval(last, state)`` of its choices, and ``count_of(*key)`` counts
    them without listing them.  With ``shards = (index, total)``
    the tree is first expanded breadth-first until a level holds at least
    4 * total nodes (or the leaves are reached), and only the nodes of that
    level at positions congruent to index modulo total are explored.

    Memo scope: one call.  The count is a pure function of the key, so a
    count runs ``count_of`` once per distinct key, in a dict local to the
    call; every node still computes its own key.  The transport memos of
    :mod:`coneideal.walks` are emptied as the call starts, so no search
    reuses a value computed by another.
    """
    for memo in TRANSPORT_MEMOS:
        memo.cache_clear()
    counts: dict[tuple, int] = {}

    def count(depth: int, state: State) -> int:
        if depth == last:
            key = interval(depth, state)
            found = counts.get(key)
            if found is None:
                found = counts[key] = count_of(*key)
            return found
        return sum(count(depth + 1, kid) for kid in children(depth, state))

    def stream(depth: int, state: State) -> Iterator[State]:
        if depth > last:
            yield state
            return
        for kid in children(depth, state):
            yield from stream(depth + 1, kid)

    depth, level = 0, [root]
    if shards is not None:
        index, total = shards
        while len(level) < 4 * total and depth <= last:
            level = [kid for state in level for kid in children(depth, state)]
            depth += 1
        level = level[index::total]
    if mode == "count":
        if depth > last:
            return len(level)
        return sum(count(depth, state) for state in level)
    return (leaf for state in level for leaf in stream(depth, state))


def enumerate_all_r3(
    params: Params,
    mode: Literal["count", "stream"] = "count",
    direction: Direction = "backward",
    shards: Optional[tuple[int, int]] = None,
):
    """Count or stream every 3D ideal of the box, layer by layer.

    Stream mode yields tuples of walks indexed by z = 0..n.  With
    ``shards = (index, total)`` only one shard of the search tree is
    explored (see :func:`depth_first`).
    """
    levels = list(range(params.n, -1, -1))
    if direction == "forward":
        levels.reverse()
    bounds = backward_bounds if direction == "backward" else forward_bounds

    def children(depth: int, seq: LayerSequence) -> Iterator[LayerSequence]:
        i = levels[depth]
        lower, upper = bounds(i, seq, params)
        return (seq.with_layer(i, w) for w in enumerate_interval(lower, upper))

    def interval(depth: int, seq: LayerSequence) -> tuple[Walk, Walk]:
        return bounds(levels[depth], seq, params)

    root = LayerSequence(params)
    found = depth_first(
        root, params.n, children, interval, count_interval, mode, shards
    )
    if mode == "count":
        return found
    return (tuple(seq.walk(i) for i in range(params.n + 1)) for seq in found)


def layers_to_points(layers: tuple[Walk, ...]) -> frozenset[tuple[int, int, int]]:
    """3D point set of a full layer stack."""
    out = []
    for z, w in enumerate(layers):
        out.extend((x, y, z) for (x, y) in w.ideal_points())
    return frozenset(out)
