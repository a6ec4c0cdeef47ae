"""Brute-force ground truth for ideals, extensions, layer filtering, the
order predicates and the codes.

The down-set, extension and layer referees work on explicit point sets and
the raw order predicates; nothing there routes through the walk calculus, so
they can referee it.  The down-set enumerator recurses over a linear
extension (coordinate sum first, which is strictly monotone for the cone
order) and therefore costs O(number of ideals) rather than O(2^points).

The remaining referees are alternative forms that tests compare against the
fast paths: the direct consistency tests of a candidate layer
(:func:`is_consistent_backward`, :func:`is_consistent_forward`,
:func:`is_consistent_sym` with :func:`is_palindromic`), the point-set cross
sections :func:`accumulate_layers` and the reach classes
:func:`classify_reach` of the shells with the reach-case walk intervals
(:func:`reach_cases`, :func:`reach_case_layers`) that referee the reach rule
of the shell layers, and the per-height point counts
:func:`layer_counts`; the planar order predicate (:func:`precedes2`) and the
generic-e, cross-section and rational-anchor forms of the order
(:func:`precedes_generic`, :func:`section_precedes`,
:func:`rational_shift_covers`); the corner input and output of walks
(:func:`walk_from_obj`, :func:`walk_from_corners` with its step rules
:func:`validate_walk`, which decode and check emitted lines, and the dict
form :func:`walk_to_obj`), and the explicit ideal, restriction and shift of a
walk (:func:`ideal_of`, :func:`restrict`, :func:`shift`), and the points,
shift, size and membership of rectangles and walks (:func:`rect_points`,
:func:`rect_shifted`, :func:`walk_size`, :func:`walk_contains`);
:func:`equivalent_transport_conditions`, whose last three conditions are the
walk-calculus forms checked against the first three on point sets; and for
the codes the scalar digit-class sums (:func:`digit_class_sums`, referee of
:func:`coneideal.codes.preimage_list`), the field encodings of a built
code's rows (:func:`row_encodings`), the digests of a built code
(:func:`code_fingerprint`, :func:`code_summary`), the codeword-level
invariance check (:func:`verify_invariance_on_words` with :func:`kernel_basis`,
:func:`word_in_code`), the scalar inverse of the subfield coordinates
(:func:`from_coordinates`), the scalar field inverse and row reduction
(:func:`scalar_inv`, :func:`scalar_rref`) and group order
(:func:`group_closure_order`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Literal

import numpy as np

from coneideal.codes import CodeSpec
from coneideal.errors import (
    CapExceeded,
    ConeIdealError,
    HostMismatch,
    InconsistentInput,
    InvalidWalk,
    OutOfRange,
)
from coneideal.fields import SmallField, shared_field
from coneideal.order import Params, Point2, Point3, precedes3, rotate
from coneideal.slicing import (
    LayerSequence,
    enumerate_interval,
    nonempty_lookahead,
    nonfull_lookback,
    square_host,
)
from coneideal.symmetric import SymLayerSequence, accumulated_walks
from coneideal.walks import (
    IdealSet2,
    Rect,
    Walk,
    empty_walk,
    highest_extension,
    ideal_transport,
    join,
    largest_avoiding,
    lowest_extension,
    meet,
    smallest_containing,
    walk_leq,
    walk_of,
)

MAX_POSET = 80


class TooLarge(ConeIdealError):
    """A brute-force referee was asked to handle too large an instance."""


def precedes2(u: Point2, v: Point2, p: int) -> bool:
    """Whether u precedes v in the planar order: u - v lies in the cone D."""
    dx = u[0] - v[0]
    dy = u[1] - v[1]
    return dx + p * dy <= 0 and p * p * dx + dy <= 0


# -- rectangles and walks as point sets --


def rect_points(rect: Rect) -> Iterator[Point2]:
    for x in range(rect.a, rect.b + 1):
        for y in range(rect.c, rect.d + 1):
            yield (x, y)


def rect_shifted(rect: Rect, dx: int, dy: int) -> Rect:
    return Rect(rect.a + dx, rect.b + dx, rect.c + dy, rect.d + dy)


def walk_size(w: Walk) -> int:
    c = w.host.c
    return sum(h - c + 1 for h in w.hs if h >= c)


def walk_contains(w: Walk, pt: Point2) -> bool:
    """Membership of pt in the bounded ideal (False outside the host)."""
    return w.host.contains(pt) and pt[1] <= w.hs[pt[0] - w.host.a]


@dataclass
class FinitePoset:
    """Materialized finite poset: points plus per-point predecessor bitmasks."""

    points: tuple
    down: tuple[int, ...]  # down[i] = bitmask of strict predecessors of i

    @property
    def size(self) -> int:
        return len(self.points)


def poset_from(points: Iterable, leq: Callable) -> FinitePoset:
    pts = tuple(points)
    if len(pts) > MAX_POSET:
        raise TooLarge(f"{len(pts)} points exceeds the oracle cap {MAX_POSET}")
    down = []
    for i, u in enumerate(pts):
        mask = 0
        for j, w in enumerate(pts):
            if i != j and leq(w, u):
                mask |= 1 << j
        down.append(mask)
    return FinitePoset(pts, tuple(down))


def box_poset(n: int, p: int) -> FinitePoset:
    """The 3D box {0..n}^3 under the cone order, in a linear extension."""
    pts = sorted(
        ((x, y, z) for x in range(n + 1) for y in range(n + 1) for z in range(n + 1)),
        key=lambda q: (q[0] + q[1] + q[2], q[2], q[1], q[0]),
    )
    return poset_from(pts, lambda u, v: precedes3(u, v, p))


def rect_poset(rect: Rect, p: int) -> FinitePoset:
    """A 2D rectangle under the planar cone order, in a linear extension."""
    pts = sorted(rect_points(rect), key=lambda q: (q[0] + q[1], q[1], q[0]))
    return poset_from(pts, lambda u, v: precedes2(u, v, p))


def brute_ideals(
    poset: FinitePoset, symmetry: Literal["none", "rotation"] = "none"
) -> list[frozenset]:
    """All down-sets of the poset, optionally filtered to rotation-fixed ones.

    The recursion decides membership point by point along the stored order;
    a point may join only when all its predecessors already did, which is
    sound because the order is a linear extension.
    """
    n = poset.size
    down = poset.down
    masks: list[int] = []

    def rec(k: int, mask: int) -> None:
        if k == n:
            masks.append(mask)
            return
        rec(k + 1, mask)
        if down[k] & ~mask == 0:
            rec(k + 1, mask | (1 << k))

    rec(0, 0)
    index = {q: i for i, q in enumerate(poset.points)}
    if symmetry == "rotation":
        rot = [index[rotate(q)] for q in poset.points]
        masks = [
            m
            for m in masks
            if all((m >> i) & 1 == (m >> rot[i]) & 1 for i in range(n))
        ]
    out = []
    for m in masks:
        out.append(frozenset(q for i, q in enumerate(poset.points) if (m >> i) & 1))
    return out


def brute_ideals_by_filter(poset: FinitePoset) -> list[frozenset]:
    """Reference implementation by raw subset filtering (tiny posets only)."""
    n = poset.size
    if n > 18:
        raise TooLarge(f"{n} points is too many for subset filtering")
    out = []
    for m in range(1 << n):
        if all(poset.down[i] & ~m == 0 for i in range(n) if (m >> i) & 1):
            out.append(
                frozenset(q for i, q in enumerate(poset.points) if (m >> i) & 1)
            )
    return out


def brute_extension(
    restriction: frozenset[Point2],
    small: Rect,
    big: Rect,
    which: Literal["largest", "smallest"],
    p: int,
) -> frozenset[Point2]:
    """Extremal ideal of big with the prescribed intersection with small."""
    if small.width * (small.d - small.c + 1) > 144 or big.width * (
        big.d - big.c + 1
    ) > 400:
        raise TooLarge("rectangle beyond the oracle extension cap")
    if which == "smallest":
        return frozenset(
            w
            for w in rect_points(big)
            if any(precedes2(w, u, p) for u in restriction)
        )
    missing = [u for u in rect_points(small) if u not in restriction]
    return frozenset(
        w
        for w in rect_points(big)
        if not any(precedes2(u, w, p) for u in missing)
    )


def all_rect_ideals(rect: Rect, p: int) -> list[frozenset[Point2]]:
    return brute_ideals(rect_poset(rect, p))


class LayerOracle:
    """Raw pairwise machinery for slab consistency at one (p, n).

    For planar ideals A (at height z_u) and B (at height z_u + dz), the slab
    condition "everything under A at offset dz lies in B" depends only on
    dz, so the reach sets R(A, dz) are tabulated once per ideal and offset
    and slab checks become subset tests on bitmasks.
    """

    def __init__(self, params: Params):
        self.params = params
        n, p = params.n, params.p
        self.rect = Rect(0, n, 0, n)
        self.cells = [(x, y) for x in range(n + 1) for y in range(n + 1)]
        self.cell_index = {q: i for i, q in enumerate(self.cells)}
        self.ideals = sorted(
            all_rect_ideals(self.rect, p),
            key=lambda s: tuple(sorted(s)),
        )
        self.masks = [sum(1 << self.cell_index[q] for q in s) for s in self.ideals]
        self._reach: dict[tuple[int, int], int] = {}

    def reach(self, ideal_idx: int, dz: int) -> int:
        """Mask of box cells w with (w, dz) below some point of the ideal."""
        key = (ideal_idx, dz)
        got = self._reach.get(key)
        if got is not None:
            return got
        p = self.params.p
        pts = self.ideals[ideal_idx]
        m = 0
        for i, w in enumerate(self.cells):
            if any(
                precedes3((w[0], w[1], dz), (u[0], u[1], 0), p) for u in pts
            ):
                m |= 1 << i
        self._reach[key] = m
        return m

    def pair_ok(self, src: int, dz: int, dst: int) -> bool:
        """Cells forced dz heights away from layer ``src`` all lie in ``dst``.

        A layer at height h forces reach(src, h' - h) at height h'.
        """
        return self.reach(src, dz) & ~self.masks[dst] == 0

    def consistent_next(
        self,
        assigned: dict[int, int],
        i: int,
    ) -> list[int]:
        """Indices of ideals consistent at height i with assigned layers.

        ``assigned`` maps heights to ideal indices; consistency is the raw
        slab condition against every assigned layer in both directions.
        """
        out = []
        for cand in range(len(self.ideals)):
            ok = True
            for j, idx in assigned.items():
                if not self.pair_ok(idx, i - j, cand):
                    ok = False
                    break
                if not self.pair_ok(cand, j - i, idx):
                    ok = False
                    break
            if ok:
                out.append(cand)
        return out


def slab_is_ideal(layers: dict[int, frozenset[Point2]], params: Params) -> bool:
    """Raw 3D downward-closure of a union of layers inside its height range."""
    p, n = params.p, params.n
    heights = sorted(layers)
    pts = set()
    for z, s in layers.items():
        pts.update((x, y, z) for (x, y) in s)
    for z in heights:
        for x in range(n + 1):
            for y in range(n + 1):
                w = (x, y, z)
                if w in pts:
                    continue
                if any(precedes3(w, u, p) for u in pts):
                    return False
    return True


def rotation_invariant_3d(points: frozenset[Point3]) -> bool:
    return all(rotate(u) in points for u in points)


def ideal_3d(points: frozenset[Point3], n: int, p: int) -> bool:
    """Raw test that a point set is an ideal of the box {0..n}^3."""
    for u in points:
        if not all(0 <= c <= n for c in u):
            return False
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                w = (x, y, z)
                if w in points:
                    continue
                if any(precedes3(w, u, p) for u in points):
                    return False
    return True


def brute_layer_candidates(
    context: Literal["backward", "forward", "symmetric"],
    prefix: dict[int, frozenset[Point2]],
    i: int,
    params: Params,
) -> list[frozenset[Point2]]:
    """Ground-truth consistent next layers by raw 3D closure tests.

    For the slicing contexts, prefix maps heights to planar ideals of the
    full layer host and candidates are ideals of that host.  For the
    symmetric context, prefix maps shell indices j to ideals of [0,j]^2 and
    candidates are the palindromic ideals of [0,i]^2 whose rotated union
    with the prefix shells is a rotation-invariant ideal of [0,i]^3.
    """
    if params.n > 3:
        raise TooLarge("layer-candidate oracle capped at n <= 3")
    if context in ("backward", "forward"):
        rect = Rect(0, params.n, 0, params.n)
        out = []
        for cand in all_rect_ideals(rect, params.p):
            layers = dict(prefix)
            layers[i] = cand
            if slab_is_ideal(layers, params):
                out.append(cand)
        return out
    # symmetric shells
    out = []
    base: set[Point3] = set()
    for j, s in prefix.items():
        for (x, y) in s:
            u = (x, y, j)
            base.add(u)
            base.add(rotate(u))
            base.add(rotate(rotate(u)))
    for cand in all_rect_ideals(Rect(0, i, 0, i), params.p):
        top = {x for (x, y) in cand if y == i}
        right = {y for (x, y) in cand if x == i}
        if top != right:
            continue
        pts = set(base)
        for (x, y) in cand:
            u = (x, y, i)
            pts.add(u)
            pts.add(rotate(u))
            pts.add(rotate(rotate(u)))
        if ideal_3d(frozenset(pts), i, params.p) and rotation_invariant_3d(
            frozenset(pts)
        ):
            out.append(cand)
    return out


def layer_counts(points: frozenset[Point3], n: int) -> list[int]:
    return [sum(1 for (x, y, z) in points if z == h) for h in range(n + 1)]


# -- consistency of a candidate layer with a partial stack --


def is_consistent_backward(i: int, candidate: Walk, seq: LayerSequence) -> bool:
    """Direct four-condition test that candidate fits below layers i+1..n."""
    params = seq.params
    p, n = params.p, params.n
    u = square_host(params.n)
    if i >= n:
        return True
    if not walk_leq(seq.walks[i + 1], candidate):
        return False
    if not walk_leq(ideal_transport(candidate, 0, -p, u), seq.walks[i + 1]):
        return False
    if i + p <= n and not walk_leq(
        ideal_transport(seq.walks[i + p], 1, 0, u), candidate
    ):
        return False
    t = nonempty_lookahead(i, seq)
    if t is not None and not walk_leq(
        ideal_transport(seq.walks[i + t], 1, -p * p + p * t, u), candidate
    ):
        return False
    return True


def is_consistent_forward(i: int, candidate: Walk, seq: LayerSequence) -> bool:
    """Direct four-condition test that candidate fits above layers 0..i-1."""
    params = seq.params
    p = params.p
    u = square_host(params.n)
    if i <= 0:
        return True
    if not walk_leq(candidate, seq.walks[i - 1]):
        return False
    if not walk_leq(ideal_transport(seq.walks[i - 1], 0, -p, u), candidate):
        return False
    if i - p >= 0 and not walk_leq(
        ideal_transport(candidate, 1, 0, u), seq.walks[i - p]
    ):
        return False
    t = nonfull_lookback(i, seq.walks, p)
    if t is not None and not walk_leq(
        ideal_transport(candidate, 1, -p * p + p * t, u), seq.walks[i - t]
    ):
        return False
    return True


class LayerReach(IntEnum):
    """How far a shell layer reaches into its last two columns."""

    INNER = 1  # nothing at x >= i-1
    EDGE = 2  # column i-1 touched, column i empty
    CORNER = 3  # column i touched


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


def reach_cases(i: int, p: int) -> tuple[tuple[Walk, Walk], ...]:
    """Fixed walk pairs (L, U) of shell i >= 1, one per reach case of a
    layer: the referee of the reach rule of
    :func:`coneideal.symmetric.enumerate_layer_sym`.

    A layer J of [0,i]^2 is in a case exactly when L <= J <= U: J stops
    before column i-1 (L empty); or J ends in column i-1 at height v and,
    once i >= p, holds (v, i-p); or J reaches column i at height u and its
    top row to column u (the palindrome condition).  The cases are
    disjoint; the ones with L > U hold no layer and are left out.
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
    return tuple((lo, hi) for lo, hi in cases if walk_leq(lo, hi))


def reach_case_layers(i: int, s_walk: Walk, t_walk: Walk, p: int) -> list[Walk]:
    """The shell-i layers of the forward interval [S, T] that the reach
    cases hold, sorted by column heights: the union of the walk intervals
    [S v L, T ^ U] over the cases (L, U) of :func:`reach_cases`.  Shell 0
    has no reach cases and keeps [S, T] itself."""
    if not walk_leq(s_walk, t_walk):
        return []
    if i == 0:
        return list(enumerate_interval(s_walk, t_walk))
    out = [
        w
        for lower, upper in reach_cases(i, p)
        if walk_leq(s_walk, upper) and walk_leq(lower, t_walk)
        for w in enumerate_interval(join(s_walk, lower), meet(t_walk, upper))
    ]
    return sorted(out, key=lambda w: w.hs)


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
                if walk_contains(candidate, (x, y)):
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
                if not walk_contains(candidate, (gamma, alpha)):
                    return False
    for beta in range(i + 1):
        for gamma in range(i + 1):
            if any(
                precedes3((i, beta, gamma), (cx, cy, i), p) for cx, cy in corners
            ):
                if not walk_contains(candidate, (beta, gamma)):
                    return False
    return True


# -- alternative forms of the order --


def circulant_row_image(d: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Row vector d times the e x e circulant with entries p^((i-j) mod e)."""
    e = len(d)
    return tuple(
        sum(d[i] * p ** ((i - j) % e) for i in range(e)) for j in range(e)
    )


def precedes_generic(u: tuple[int, ...], v: tuple[int, ...], p: int) -> bool:
    """Generic-e variant of :func:`precedes3` (kept for e = 2 regressions)."""
    d = tuple(a - b for a, b in zip(u, v))
    return all(c <= 0 for c in circulant_row_image(d, p))


def cone_slice_anchor(c: int, p: int) -> tuple[Fraction, Fraction]:
    """Anchor of the z = c cross-section of the 3D cone, as a translate of D.

    The section is D shifted by (0, -cp) for c >= 0 and by (-c/p, 0) for
    c < 0.  The rational anchor is returned exactly; membership tests should
    go through :func:`in_slice` which clears the denominator.
    """
    if c >= 0:
        return (Fraction(0), Fraction(-c * p))
    return (Fraction(-c, p), Fraction(0))


def in_slice(w: Point2, c: int, p: int) -> bool:
    """Whether w lies in the z = c cross-section anchor + D (integer test)."""
    x, y = w
    if c >= 0:
        # (x, y + c*p) in D
        return x + p * (y + c * p) <= 0 and p * p * x + (y + c * p) <= 0
    # (x + c/p, y) in D, multiplied through by p where needed
    return p * x + c + p * p * y <= 0 and p * p * x + p * c + y <= 0


def rational_shift_covers(c: int, p: int) -> tuple[Point2, Point2]:
    """Two integer translates of D covering the lattice points of c(1/p,0)+D.

    With c = a*p + b, 0 <= b <= p-1, the integer points of the rationally
    shifted cone equal those of the union of D + (a, 0) and
    D + (a+1, -p^2 + p*b).
    """
    a, b = divmod(c, p)
    return ((a, 0), (a + 1, -p * p + p * b))


def section_precedes(u: Point3, v: Point3, p: int) -> bool:
    """Cross-section form of :func:`precedes3` via the planar cone D.

    Equivalent to precedes3 by construction; exposed for coherence tests.
    """
    dz = u[2] - v[2]
    return in_slice((u[0] - v[0], u[1] - v[1]), dz, p)


# -- corner input and output, explicit ideals, restriction and shift of walks --


def walk_to_obj(w: Walk) -> dict:
    """JSON-ready form of a walk: host [a,b,c,d] plus the corner pair array;
    ``json.dumps`` of it is :attr:`coneideal.walks.Walk.json_text`."""
    return {"host": list(w.host), "points": [list(q) for q in w.points]}


def walk_from_obj(obj: dict, p: int) -> Walk:
    pts = tuple((int(x), int(y)) for x, y in obj["points"])
    return walk_from_corners(Rect(*obj["host"]), p, pts)


def walk_from_corners(host: Rect, p: int, pts: tuple[Point2, ...]) -> Walk:
    """Decode a corner sequence; raises InvalidWalk when it breaks a step
    rule.  Valid corner sequences and closed height profiles are in
    bijection, so the corners read back from the result equal ``pts``."""
    if not validate_walk(host, p, pts):
        raise InvalidWalk(f"corner list is not a walk: {pts} in {host}")
    a, b, c = host.a, host.b, host.c
    hs = [c - 1] * host.width
    i = 0
    for x in range(a, b + 1):
        while i < len(pts) and pts[i][0] < x:
            i += 1
        if i == len(pts):
            break
        hs[x - a] = pts[i][1]
    return Walk(host, p, tuple(hs))


def validate_walk(host: Rect, p: int, pts: tuple[Point2, ...]) -> bool:
    """Check the five step rules on a corner sequence; True when empty."""
    if not pts:
        return True
    a, b, c, d = host.a, host.b, host.c, host.d
    if any(not host.contains(q) for q in pts):
        return False
    x0, y0 = pts[0]
    xk, yk = pts[-1]
    if not (x0 == a or y0 == d):
        return False
    if not (xk == b or yk == c):
        return False
    steps = []  # (kind, length) with kind 'h' or 'v'
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        if qy == py and 1 <= qx - px <= p:
            steps.append(("h", qx - px))
        elif qx == px and 1 <= py - qy <= p * p:
            steps.append(("v", py - qy))
        else:
            return False
    for s, t in zip(steps, steps[1:]):
        if s[0] == t[0]:
            return False
    if steps:
        if a <= x0 < b and y0 == d and steps[0][0] != "v":
            return False
        if xk == b and c <= yk < d and steps[-1][0] != "h":
            return False
        if steps[0][0] == "h" and steps[0][1] > p - 1:
            return False
        if steps[-1][0] == "v" and steps[-1][1] > p * p - 1:
            return False
    return True


def ideal_of(w: Walk) -> IdealSet2:
    return IdealSet2(w.host, w.ideal_points())


def restrict(w: Walk, sub: Rect) -> Walk:
    """Walk of the bounded ideal intersected with a subrectangle."""
    if not w.host.contains_rect(sub):
        raise HostMismatch(f"{sub} not inside {w.host}")
    hs = w.hs[sub.a - w.host.a : sub.b - w.host.a + 1]
    c, d = sub.c, sub.d
    return Walk(sub, w.p, tuple(min(h, d) if h >= c else c - 1 for h in hs))


def shift(w: Walk, dx: int, dy: int) -> Walk:
    """Translate a walk (and its host) by (dx, dy)."""
    return Walk(rect_shifted(w.host, dx, dy), w.p, tuple(h + dy for h in w.hs))


# -- the transport conditions, on point sets and on walks --


def equivalent_transport_conditions(
    j_set: IdealSet2, k_set: IdealSet2, a: int, b: int, p: int
) -> tuple[bool, bool, bool, bool, bool, bool]:
    """Six independent forms of "(ideal J) + cone + (a, -b) lands inside K".

    Conditions 1-3 are evaluated on explicit point sets (with the enlarged
    host and its largest extension computed by raw order tests); conditions
    4-6 are their boundary-walk counterparts.  All six agree for ideals of a
    common host and a, b >= 0; exposed for property testing.
    """
    u = j_set.host
    if k_set.host != u:
        raise InconsistentInput("both ideals must share a host")
    big = Rect(u.a, u.b + a, u.c - b, u.d)
    window = rect_shifted(u, a, -b)
    w_walk = walk_of(j_set, p)
    j_max = w_walk.points

    def reaches(w: tuple[int, int]) -> bool:
        return any(
            precedes2(w, (ux + a, uy - b), p) for (ux, uy) in j_max
        )

    # largest ideal of big restricting to K, by raw exclusion
    k_missing = [q for q in rect_points(u) if q not in k_set.points]
    k_bar = frozenset(
        w
        for w in rect_points(big)
        if not any(precedes2(q, w, p) for q in k_missing)
    )

    cond1 = not any(
        reaches(w) for w in rect_points(u) if w not in k_set.points
    )
    cond2 = all((x + a, y - b) in k_bar for (x, y) in j_set.points)
    cond3 = not any(reaches(w) for w in rect_points(big) if w not in k_bar)

    z_walk = walk_of(k_set, p)
    moved = shift(w_walk, a, -b)
    low_ext = lowest_extension(moved, big)
    high_ext = highest_extension(z_walk, big)
    cond4 = walk_leq(restrict(low_ext, u), z_walk)
    cond5 = walk_leq(moved, restrict(high_ext, window))
    cond6 = walk_leq(low_ext, high_ext)
    return (cond1, cond2, cond3, cond4, cond5, cond6)


# -- the codes: digit classes, digests and codeword-level checks --


def row_encodings(spec: CodeSpec) -> np.ndarray:
    """The field encodings of the reduced rows (rank x p^m), read off their
    F_p-coordinates ``spec.coords`` through the subfield tables."""
    sub = spec.sub
    weights = sub.p ** np.arange(len(spec.coords))
    return sub.elements[sub.from_coords[np.tensordot(weights, spec.coords, axes=1)]]


def code_fingerprint(spec: CodeSpec) -> tuple:
    return tuple(map(tuple, row_encodings(spec).tolist()))


def code_summary(spec: CodeSpec) -> dict:
    """JSON-ready digest of a built code."""
    return {
        "p": spec.params.p,
        "m": spec.params.m,
        "r": spec.params.r,
        "ideal_points": sorted(spec.ideal),
        "defining_count": spec.defining_count,
        "dimension": spec.dimension,
    }


def digit_class_sums(s: int, params: Params) -> tuple[int, int, int]:
    """Base-p digit sums of s grouped by digit position modulo 3."""
    p, m = params.p, params.m
    if not 0 <= s < p**m:
        raise OutOfRange(f"s = {s} outside [0, {p ** m})")
    acc = [0, 0, 0]
    for pos in range(m):
        acc[pos % 3] += s % p
        s //= p
    return (acc[0], acc[1], acc[2])


def from_coordinates(fld: SmallField, coords: list[int]) -> int:
    """The element sum_t coords[t] x^t, one field operation at a time: the
    inverse of :meth:`coneideal.fields.SmallField.coordinates`."""
    acc = 0
    for t, c in enumerate(coords):
        acc = fld.add(acc, fld.mul(c, fld.p**t))
    return acc


def scalar_inv(fld: SmallField, a: int) -> int:
    """The inverse of a nonzero element through the log tables."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return fld.exp[-fld.log[a] % (fld.order - 1)]


def scalar_rref(
    fld: SmallField, rows: list[list[int]]
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the subfield containing all entries,
    one field operation at a time."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = scalar_inv(fld, mat[rank][col])
        mat[rank] = [fld.mul(inv, v) for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [
                    fld.sub(a, fld.mul(f, b)) for a, b in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def kernel_basis(spec: CodeSpec) -> list[list[int]]:
    """Basis codewords of the kernel over GF(p^r), from the echelon form."""
    fld = shared_field(spec.params.p, spec.params.m)
    ncols = fld.order
    pivot_set = set(spec.pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, col in zip(row_encodings(spec).tolist(), spec.pivots):
            vec[col] = fld.neg(row[f])
        basis.append(vec)
    return basis


def word_in_code(spec: CodeSpec, word: list[int]) -> bool:
    """Evaluate every expanded constraint on an explicit word."""
    fld = shared_field(spec.params.p, spec.params.m)
    for row in row_encodings(spec).tolist():
        acc = 0
        for a, b in zip(row, word):
            if a and b:
                acc = fld.add(acc, fld.mul(a, b))
        if acc:
            return False
    return True


def group_closure_order(gens: list[tuple[int, ...]], limit: int = 10**6) -> int:
    """Size of the permutation group generated (breadth-first closure)."""
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                comp = tuple(h[i] for i in g)
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
                    if len(seen) > limit:
                        raise CapExceeded("group closure beyond limit")
        frontier = nxt
    return len(seen)


def verify_invariance_on_words(
    spec: CodeSpec, gens: list[tuple[int, ...]]
) -> bool:
    """Codeword-level variant: permute each kernel basis word and re-check
    membership by constraint evaluation (small fields only)."""
    if spec.params.p**spec.params.m > 2**10:
        raise CapExceeded("codeword-level check capped to small fields")
    basis = kernel_basis(spec)
    for perm in gens:
        for word in basis:
            permuted = [0] * len(word)
            for i, v in enumerate(word):
                permuted[perm[i]] = v
            if not word_in_code(spec, permuted):
                return False
    return True
