"""Property tests for the transport identities behind the slicing bounds.

Raw evaluators here work on explicit point sets with the order predicates
only, so they are independent of the walk-level implementations they
referee.
"""

import random

import pytest

from coneideal.order import Params, precedes3
from coneideal.slicing import ideal_transport
from coneideal.symmetric import (
    SymLayerSequence,
    accumulated_walks,
    enumerate_layer_sym,
    symmetric_bounds,
)
from coneideal.walks import (
    IdealSet2,
    Rect,
    highest_extension,
    walk_leq,
    walk_of,
)
from oracle import (
    accumulate_layers,
    all_rect_ideals,
    precedes2,
    rect_points,
    restrict,
    shift,
)


def raw_transport_subset(j_pts, dx, dy, target, k_pts, p):
    """[J + cone + (dx, dy)] within target is contained in K (raw loops)."""
    for w in rect_points(target):
        if w in k_pts:
            continue
        for (ux, uy) in j_pts:
            if precedes2(w, (ux + dx, uy + dy), p):
                return False
    return True


class TestVerticalComposition:
    """Pure downward transports compose with no hypothesis on the middle
    ideal (unlike the mixed-direction composition)."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_randomized(self, p):
        rng = random.Random(500 + p)
        hits = 0
        while hits < 400:
            n = rng.randint(1, 3)
            u = Rect(0, n, 0, n)
            pool = all_rect_ideals(u, p)
            j, k, l = (rng.choice(pool) for _ in range(3))
            b, c = rng.randint(1, 4), rng.randint(1, 4)
            if not raw_transport_subset(j, 0, -b, u, k, p):
                continue
            if not raw_transport_subset(k, 0, -c, u, l, p):
                continue
            hits += 1
            assert raw_transport_subset(j, 0, -b - c, u, l, p), (p, n, b, c)


class TestBoundaryColumnReduction:
    """Containment of a downward transport in a one-larger square is
    decided inside the smaller square."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_randomized(self, p):
        rng = random.Random(600 + p)
        for _ in range(300):
            i = rng.randint(1, 3)
            small, big = Rect(0, i - 1, 0, i - 1), Rect(0, i, 0, i)
            j = rng.choice(all_rect_ideals(small, p))
            k = rng.choice(all_rect_ideals(big, p))
            b = rng.randint(0, 4)
            k_small = frozenset(q for q in k if small.contains(q))
            lhs = raw_transport_subset(j, 0, -b, big, k, p)
            rhs = raw_transport_subset(j, 0, -b, small, k_small, p)
            assert lhs == rhs, (p, i, b, sorted(j), sorted(k))


class TestLiftedTransport:
    """Small-square transport inclusions and their lifts to the largest
    extensions in the one-larger square.

    The lift is NOT valid for arbitrary ideal pairs, even nonempty/nonfull
    ones over a wide-enough square: the extension may reach the new top row
    and its shifted copy can poke into the target square where the original
    transport missed it entirely.  The first test pins that counterexample.
    The property that the layer-bound derivation actually needs is the lift
    across accumulated shell sections of a consistent symmetric prefix with
    the slab shift family, and that form holds (second test).
    """

    def test_arbitrary_pairs_admit_counterexamples(self):
        p, i = 2, 2
        small, big = Rect(0, i - 1, 0, i - 1), Rect(0, i, 0, i)
        j = frozenset({(0, 0), (0, 1)})
        wj = walk_of(IdealSet2(small, j), p)
        wk = wj  # target equals source: nested, nonempty, nonfull
        b, c = 1, 2
        assert walk_leq(ideal_transport(wj, b, -c, small), wk)  # premise
        j_hat = highest_extension(wj, big)
        k_hat = highest_extension(wk, big)
        assert not walk_leq(ideal_transport(j_hat, b, -c, big), k_hat)

    @pytest.mark.parametrize("p,m", [(2, 6), (2, 9), (3, 3), (3, 6)])
    def test_holds_on_accumulated_sections(self, p, m):
        params = Params(p=p, m=m, r=1)
        rng = random.Random(700 + 13 * p + m)
        checked = 0
        for _ in range(40):
            walks = []
            depth = rng.randint(2, min(4, params.n))
            for j in range(depth):
                cum = (
                    accumulated_walks(SymLayerSequence(params, walks), j)
                    if j
                    else []
                )
                st = symmetric_bounds(j, cum, params)
                walks.append(rng.choice(enumerate_layer_sym(j, *st, params)))
            i = depth
            cum = accumulated_walks(SymLayerSequence(params, walks), i)
            big = Rect(0, i, 0, i)
            hats = [highest_extension(w, big) for w in cum]
            for j in range(i):
                for a in range(0, j // p + 1):
                    for b in range(0, p):
                        tgt = j - a * p - b
                        if tgt < 0:
                            continue
                        checked += 1
                        assert walk_leq(
                            ideal_transport(hats[j], a, 0, big), hats[tgt]
                        )
                        assert walk_leq(
                            ideal_transport(hats[j], a + 1, -p * p + b * p, big),
                            hats[tgt],
                        )
        assert checked > 50


# -- shell-consistency condition family, evaluated fully raw --


def shell_conditions(cand_pts, sections, i, p):
    """The five membership conditions for a shell layer over a prefix,
    as one boolean each: palindrome, downward, upward, two rotated cones."""
    box2 = [(x, y) for x in range(i + 1) for y in range(i + 1)]
    inner = [(x, y) for x in range(i) for y in range(i)]
    top = {x for (x, y) in cand_pts if y == i}
    right = {y for (x, y) in cand_pts if x == i}
    palin = top == right
    down = all(
        (x, y) in sections[j]
        for j in range(i)
        for (x, y) in inner
        if any(precedes3((x, y, j), (ux, uy, i), p) for (ux, uy) in cand_pts)
    )
    up = all(
        (x, y) in cand_pts
        for j in range(i)
        for (x, y) in box2
        if any(precedes3((x, y, i), (ux, uy, j), p) for (ux, uy) in sections[j])
    )
    rot1 = all(
        (g, a) in cand_pts
        for a in range(i + 1)
        for g in range(i + 1)
        if any(precedes3((a, i, g), (ux, uy, i), p) for (ux, uy) in cand_pts)
    )
    rot2 = all(
        (b, g) in cand_pts
        for b in range(i + 1)
        for g in range(i + 1)
        if any(precedes3((i, b, g), (ux, uy, i), p) for (ux, uy) in cand_pts)
    )
    return palin, down, up, rot1, rot2


def max_row_condition(cand_pts, i, p):
    if i < p:
        return True
    col = [y for (x, y) in cand_pts if x == i - 1]
    if not col:
        return True
    row = [x for (x, y) in cand_pts if y == i - p]
    return bool(row) and max(col) <= max(row)


def _consistent_prefixes(params, depth, rng, count):
    out = []
    for _ in range(count):
        walks = []
        for j in range(depth):
            cum = accumulated_walks(SymLayerSequence(params, walks), j) if j else []
            cands = enumerate_layer_sym(j, *symmetric_bounds(j, cum, params), params)
            walks.append(rng.choice(cands))
        out.append(walks)
    return out


class TestRotatedInclusionImplications:
    @pytest.mark.parametrize("p,m", [(2, 6), (3, 3), (3, 6)])
    def test_first_rotation_implied(self, p, m):
        # palindrome + both transports force the first rotated inclusion
        params = Params(p=p, m=m, r=1)
        rng = random.Random(p * 100 + m)
        for depth in range(1, min(3, params.n) + 1):
            for walks in _consistent_prefixes(params, depth, rng, 6):
                i = depth
                seq = SymLayerSequence(params, walks)
                sections = [s.points for s in accumulate_layers(seq, i)]
                for cand in all_rect_ideals(Rect(0, i, 0, i), p):
                    palin, down, up, rot1, rot2 = shell_conditions(
                        cand, sections, i, p
                    )
                    if palin and down and up:
                        assert rot1, (p, m, i, sorted(cand))

    @pytest.mark.parametrize("p,m", [(2, 6), (3, 3), (3, 6)])
    def test_second_rotation_reduces_to_max_row(self, p, m):
        params = Params(p=p, m=m, r=1)
        rng = random.Random(p * 200 + m)
        for depth in range(1, min(3, params.n) + 1):
            for walks in _consistent_prefixes(params, depth, rng, 6):
                i = depth
                seq = SymLayerSequence(params, walks)
                sections = [s.points for s in accumulate_layers(seq, i)]
                for cand in all_rect_ideals(Rect(0, i, 0, i), p):
                    palin, down, up, rot1, rot2 = shell_conditions(
                        cand, sections, i, p
                    )
                    if palin and down and up and rot1:
                        assert rot2 == max_row_condition(cand, i, p), (
                            p, m, i, sorted(cand),
                        )
