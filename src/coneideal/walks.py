"""Boundary walks of planar cone ideals in integer rectangles.

An ideal of a rectangle [a,b] x [c,d] under the planar cone order is
determined by its column heights: a vector h with h[x] in {c-1} | [c,d]
(c-1 meaning an empty column) that is non-increasing, drops by at most p^2
between adjacent columns, and rises by at least 1 over any span of p columns
while below the top edge.  The boundary walk is the staircase of corner
points of that profile: horizontal steps of length <= p (<= p-1 for a
leading step) alternating with vertical steps of length <= p^2 (<= p^2-1
for a trailing step).

Everything here is exact integer arithmetic.  A walk is stored as its
height profile, and its corner sequence is derived only for the JSON
output.  Walks are immutable; the host rectangle and the prime travel with
the walk so host mismatches are detectable.

One per-column kernel computes the cone closure of a point list, read
straight on a target rectangle.  The cone order is reversed by u -> -u, so
negating the complement of an ideal gives an ideal of the negated
rectangle (the order dual, :func:`dual`).  Every upper construction (the
upper transport, the largest avoiding walk) is the dual of a closure; the
extensions to a bigger rectangle are the zero shifts of the transports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Literal, NamedTuple

from .errors import HostMismatch, InvalidWalk, NoSuchWalk, NotAnIdeal
from .order import Point2


class _RectFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class Rect(_RectFields):
    """Integer rectangle [a, b] x [c, d] with a <= b and c <= d: a tuple, so
    memo lookups hash and compare it in C."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Rect":
        if a > b or c > d:
            raise InvalidWalk(f"degenerate rectangle bounds {(a, b, c, d)}")
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def width(self) -> int:
        return self.b - self.a + 1

    def contains(self, pt: Point2) -> bool:
        return self.a <= pt[0] <= self.b and self.c <= pt[1] <= self.d

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.a <= other.a
            and other.b <= self.b
            and self.c <= other.c
            and other.d <= self.d
        )

    def negated(self) -> "Rect":
        """The rectangle {-u : u in self}."""
        return Rect(-self.b, -self.a, -self.d, -self.c)


class _WalkFields(NamedTuple):
    host: Rect
    p: int
    hs: tuple[int, ...]


class Walk(_WalkFields):
    """An ideal of ``host`` stored as its column heights; host.c - 1 marks
    an empty column.  A tuple (host, p, hs), so equality and hashing run in
    C; the boundary's corners and its JSON text are computed on first use
    and kept in the instance dict."""

    @property
    def is_empty(self) -> bool:
        return self.hs[0] < self.host.c

    @property
    def is_full(self) -> bool:
        return self.hs[-1] == self.host.d

    def heights(self) -> tuple[int, ...]:
        """Column heights of the bounded ideal; host.c - 1 marks empty."""
        return self.hs

    @cached_property
    def points(self) -> tuple[Point2, ...]:
        """Corner sequence of the boundary walk (empty for the empty ideal)."""
        return _corners(self.hs, self.host)

    def ideal_points(self) -> frozenset[Point2]:
        """Materialize the bounded ideal as a point set."""
        a, c = self.host.a, self.host.c
        out = []
        for i, h in enumerate(self.hs):
            out.extend((a + i, y) for y in range(c, h + 1))
        return frozenset(out)

    def to_obj(self) -> dict:
        """JSON-ready form: host [a,b,c,d] plus the corner pair array."""
        return {"host": list(self.host), "points": [list(q) for q in self.points]}

    @cached_property
    def json_text(self) -> str:
        """``json.dumps(self.to_obj())``, encoded once per walk."""
        return json.dumps(self.to_obj())


def walk_from_heights(hs: tuple[int, ...], host: Rect, p: int) -> Walk:
    """The walk of a height profile given from outside the walk calculus.

    Raises NotAnIdeal when the profile violates closure: increasing heights,
    a drop beyond p^2 (p^2 - 1 into an empty tail), or a run wider than the
    step rules admit.
    """
    c, d = host.c, host.d
    if len(hs) != host.width:
        raise NotAnIdeal("height profile does not match the host width")
    p2 = p * p
    prev = None
    for i, h in enumerate(hs):
        if h > d or h < c - 1:
            raise NotAnIdeal(f"height {h} outside [{c - 1}, {d}]")
        if prev is not None:
            if h > prev:
                raise NotAnIdeal("heights increase to the right")
            if prev >= c and prev - p2 >= c and h < prev - p2:
                raise NotAnIdeal("drop exceeds the vertical step bound")
        if i >= p and c <= h < d and hs[i - p] < d and h > hs[i - p] - 1:
            raise NotAnIdeal("run below the top edge is wider than allowed")
        prev = h
    return Walk(host, p, tuple(hs))


def _corners(hs: tuple[int, ...], host: Rect) -> tuple[Point2, ...]:
    """Canonical corner sequence of a closed height profile."""
    a, b, c, d = host.a, host.b, host.c, host.d
    runs: list[tuple[int, int, int]] = []  # (left, right, height)
    for i, h in enumerate(hs):
        if h < c:
            break
        if runs and runs[-1][2] == h:
            left, _, _ = runs[-1]
            runs[-1] = (left, a + i, h)
        else:
            runs.append((a + i, a + i, h))
    if not runs:
        return ()
    corners: list[Point2] = []
    l1, r1, h1 = runs[0]
    if h1 == d:
        corners.append((r1, d))
    else:
        corners.append((a, h1))
        if r1 > a:
            corners.append((r1, h1))
    for _, r, h in runs[1:]:
        corners.append((corners[-1][0], h))
        corners.append((r, h))
    rk, hk = runs[-1][1], runs[-1][2]
    if rk < b and hk > c:
        corners.append((rk, c))
    return tuple(corners)


def empty_walk(host: Rect, p: int) -> Walk:
    return Walk(host, p, (host.c - 1,) * host.width)


def full_walk(host: Rect, p: int) -> Walk:
    return Walk(host, p, (host.d,) * host.width)


@dataclass(frozen=True)
class IdealSet2:
    """Explicit planar ideal: a host rectangle and a point set."""

    host: Rect
    points: frozenset[Point2]


def walk_of(s: IdealSet2, p: int) -> Walk:
    """The walk of an explicit planar ideal (the inverse of the referee
    ``ideal_of`` in ``tests/oracle.py``); raises NotAnIdeal when s is not
    closed."""
    a, c = s.host.a, s.host.c
    hs = [c - 1] * s.host.width
    for x, y in s.points:
        if not s.host.contains((x, y)):
            raise NotAnIdeal(f"point {(x, y)} outside host {s.host}")
        hs[x - a] = max(hs[x - a], y)
    expected = sum(h - c + 1 for h in hs if h >= c)
    if expected != len(s.points):
        raise NotAnIdeal("columns are not bottom-anchored intervals")
    return walk_from_heights(tuple(hs), s.host, p)


def dual(w: Walk) -> Walk:
    """The walk of {-u : u in w.host, u not in w's ideal} on the negated
    host.  An involution that swaps meet and join, empty and full, and
    reverses containment."""
    return Walk(w.host.negated(), w.p, tuple(-1 - h for h in reversed(w.hs)))


def _require_same_host(w1: Walk, w2: Walk) -> None:
    if w1.host != w2.host or w1.p != w2.p:
        raise HostMismatch(f"{w1.host} (p={w1.p}) vs {w2.host} (p={w2.p})")


def walk_leq(w1: Walk, w2: Walk) -> bool:
    """Containment of bounded ideals."""
    _require_same_host(w1, w2)
    return all(h1 <= h2 for h1, h2 in zip(w1.hs, w2.hs))


# Ideals of a rectangle are closed under intersection and union, and so are
# the extremal extensions below: every result here is a closed profile by
# construction and is built without re-validation.


def meet(w1: Walk, w2: Walk) -> Walk:
    _require_same_host(w1, w2)
    return Walk(w1.host, w1.p, tuple(map(min, w1.hs, w2.hs)))


def join(w1: Walk, w2: Walk) -> Walk:
    _require_same_host(w1, w2)
    return Walk(w1.host, w1.p, tuple(map(max, w1.hs, w2.hs)))


def meet_all(walks: list[Walk]) -> Walk:
    return reduce(meet, walks)


def join_all(walks: list[Walk]) -> Walk:
    return reduce(join, walks)


def _reach_down_heights(gens: list[Point2], big: Rect, p: int) -> tuple[int, ...]:
    """Heights of {w in big : w precedes some generator} (cone closure)."""
    a, b, c, d = big.a, big.b, big.c, big.d
    p2 = p * p
    hs = []
    for x in range(a, b + 1):
        best = c - 1
        for ux, uy in gens:
            cap = min((p * uy + ux - x) // p, uy + p2 * (ux - x))
            if cap > best:
                best = cap
        hs.append(min(best, d) if best >= c else c - 1)
    return tuple(hs)


def closure(w: Walk, dx: int, dy: int, target: Rect) -> Walk:
    """Walk of [(ideal of w) + cone + (dx, dy)] intersected with target.

    The ideal is generated by the top right point of each run of equal
    heights, which dominates its run coordinatewise; the cone order is
    translation invariant, so the moved generators close the moved ideal,
    read straight on the target's columns.
    """
    a, c = w.host.a, w.host.c
    hs = w.hs + (c - 1,)
    tops = [
        (a + i + dx, h + dy) for i, h in enumerate(hs[:-1]) if h >= c and hs[i + 1] < h
    ]
    return Walk(target, w.p, _reach_down_heights(tops, target, w.p))


@lru_cache(maxsize=None)
def ideal_transport(w: Walk, dx: int, dy: int, target: Rect) -> Walk:
    """:func:`closure`, memoized for the length of one search."""
    return closure(w, dx, dy, target)


@lru_cache(maxsize=None)
def transport_upper_bound(z: Walk, dx: int, dy: int, target: Rect) -> Walk:
    """Largest walk over target whose transport by (dx, dy), read on z's
    host, lies in z.  A point q is left out exactly when q + (dx, dy) lies
    above a point of z's host outside z, so the negated left-out points are
    the closure of the dual of z moved by (dx, dy): the answer is the dual
    of that closure, built on target itself."""
    left_out = closure(dual(z), dx, dy, target.negated())
    return Walk(target, z.p, tuple(-1 - h for h in reversed(left_out.hs)))


# The search driver empties these memos as each search starts; the tuple
# keeps them reachable when the module names are rebound to wrappers.
TRANSPORT_MEMOS = (ideal_transport, transport_upper_bound)


def lowest_extension(z: Walk, big: Rect) -> Walk:
    """Walk of the smallest ideal of ``big`` restricting to z's ideal: the
    cone closure of the ideal inside the bigger rectangle."""
    if not big.contains_rect(z.host):
        raise HostMismatch(f"{z.host} not inside {big}")
    return ideal_transport(z, 0, 0, big)


def highest_extension(z: Walk, big: Rect) -> Walk:
    """Walk of the largest ideal of ``big`` restricting to z's ideal: the
    dual of the lowest extension of the dual of z to the negated ``big``.
    On z's own host that ideal is z."""
    if big == z.host:
        return z
    if not big.contains_rect(z.host):
        raise HostMismatch(f"{z.host} not inside {big}")
    return transport_upper_bound(z, 0, 0, big)


def smallest_containing(pts: list[Point2], host: Rect, p: int) -> Walk:
    """Walk of the smallest ideal of host containing every point of pts;
    raises NoSuchWalk when one lies outside host."""
    if not all(map(host.contains, pts)):
        raise NoSuchWalk(f"{pts} not inside {host}")
    return Walk(host, p, _reach_down_heights(pts, host, p))


def largest_avoiding(pts: list[Point2], host: Rect, p: int) -> Walk:
    """Walk of the largest ideal of host holding no point of pts: the dual
    of the closure of the negated points in host (the others are ignored)."""
    neg = [(-x, -y) for x, y in pts if host.contains((x, y))]
    return dual(smallest_containing(neg, host.negated(), p))


WalkKind = Literal[
    "lowest-start", "highest-start", "lowest-end", "highest-end", "lowest-through"
]


def extremal_walk(host: Rect, anchor: Point2, kind: WalkKind, p: int) -> Walk:
    """The least/greatest walk of a family anchored at a boundary point.

    Families: walks starting at the anchor, walks ending at the anchor, and
    walks whose ideal contains the anchor ("lowest-through").  Start/end
    anchors must be legal walk endpoints for the host.
    """
    if not host.contains(anchor):
        raise NoSuchWalk(f"anchor {anchor} outside host {host}")
    x, y = anchor
    a, b, c, d = host.a, host.b, host.c, host.d
    if kind == "lowest-start" and x != a and y != d:
        raise NoSuchWalk(f"no walk starts at {anchor} in {host}")
    if kind == "lowest-end" and x != b and y != c:
        raise NoSuchWalk(f"no walk ends at {anchor} in {host}")
    if kind in ("lowest-through", "lowest-start", "lowest-end"):
        return smallest_containing([anchor], host, p)
    if kind == "highest-start":
        if y == d:
            return largest_avoiding([(x + 1, d)], host, p)
        if x == a:
            return largest_avoiding([(a, y + 1)], host, p)
        raise NoSuchWalk(f"no walk starts at {anchor} in {host}")
    if kind == "highest-end":
        if x == b:
            return largest_avoiding([(b, y + 1)], host, p)
        if y == c:
            return largest_avoiding([(x + 1, c)], host, p)
        raise NoSuchWalk(f"no walk ends at {anchor} in {host}")
    raise NoSuchWalk(f"unknown walk family {kind!r}")
