"""Walk calculus: validation, the boundary bijection, lattice ops,
restriction, shift, transports, the order dual, extensions and extremal
walks."""

import random
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from coneideal.errors import (
    BoundsInverted,
    HostMismatch,
    InvalidWalk,
    NoSuchWalk,
    NotAnIdeal,
)
from coneideal.slicing import enumerate_interval
from coneideal.walks import (
    IdealSet2,
    Rect,
    dual,
    empty_walk,
    extremal_walk,
    full_walk,
    highest_extension,
    ideal_transport,
    join,
    largest_avoiding,
    lowest_extension,
    meet,
    smallest_containing,
    transport_upper_bound,
    walk_from_heights,
    walk_leq,
    walk_of,
)
from oracle import (
    all_rect_ideals,
    brute_extension,
    ideal_of,
    precedes2,
    rect_points,
    rect_shifted,
    restrict,
    shift,
    validate_walk,
    walk_contains,
    walk_from_corners,
    walk_from_obj,
    walk_size,
    walk_to_obj,
)

FIG_WALK = ((0, 9), (1, 9), (1, 7), (3, 7), (3, 3), (5, 3), (5, 0))


def staircase_walk():
    return walk_from_corners(Rect(0, 10, 0, 10), 2, FIG_WALK)


@st.composite
def walk_strategy(draw, max_side=5, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    a = draw(st.integers(-2, 2))
    b = a + draw(st.integers(0, max_side))
    c = draw(st.integers(-2, 2))
    d = c + draw(st.integers(0, max_side))
    host = Rect(a, b, c, d)
    return walk_from_heights(draw_heights(draw, host, p), host, p)


def draw_heights(draw, host, p):
    """A random closed height profile of host, column by column."""
    c, d = host.c, host.d
    hs: list[int] = []
    for i in range(host.width):
        ub = d if not hs else hs[-1]
        lb = c - 1
        if hs and hs[-1] - p * p >= c:
            lb = hs[-1] - p * p
        options = [
            v
            for v in range(lb, ub + 1)
            if not (v >= c and i >= p and hs[i - p] < d and v > hs[i - p] - 1)
        ]
        hs.append(draw(st.sampled_from(options)))
    return tuple(hs)


class TestValidation:
    def test_reference_staircase_is_valid(self):
        w = staircase_walk()
        assert validate_walk(w.host, w.p, w.points)

    def test_leading_horizontal_step_too_long(self):
        assert not validate_walk(Rect(0, 2, 0, 2), 2, ((0, 0), (2, 0)))

    def test_empty_walk_is_valid(self):
        e = empty_walk(Rect(0, 3, 0, 3), 2)
        assert validate_walk(e.host, e.p, e.points)

    def test_alternation_required(self):
        pts = ((0, 3), (1, 3), (2, 3), (2, 0), (4, 0))
        assert not validate_walk(Rect(0, 4, 0, 4), 5, pts)

    def test_trailing_vertical_step_too_long(self):
        # a drop of p^2 may only appear mid-walk, not as the final step
        assert not validate_walk(Rect(0, 4, 0, 4), 2, ((0, 4), (0, 0)))
        assert validate_walk(Rect(0, 4, 0, 4), 2, ((0, 3), (0, 0)))

    def test_single_point_rules(self):
        host = Rect(0, 3, 0, 3)
        full = full_walk(host, 2)
        assert validate_walk(host, 2, full.points)
        assert not validate_walk(host, 2, ((1, 2),))
        assert validate_walk(host, 2, ((0, 0),))  # bottom-left corner

    def test_points_outside_host_rejected(self):
        assert not validate_walk(Rect(0, 2, 0, 2), 2, ((0, 3),))


# square, offset, negated and single-cell hosts
VALIDATION_HOSTS = (
    Rect(0, 3, 0, 3), Rect(1, 4, 2, 4), Rect(-3, 0, -3, 0), Rect(0, 0, 0, 0)
)


class TestValidatorsAgainstBruteIdeals:
    """walk_from_heights and walk_of against the brute-force ideal list,
    over every input near the host, not only over well-formed ones."""

    @pytest.mark.parametrize("p", (2, 3, 5))
    @pytest.mark.parametrize("host", VALIDATION_HOSTS)
    def test_heights_accepted_exactly_when_ideal(self, host, p):
        ideals = set(all_rect_ideals(host, p))
        a, c, d = host.a, host.c, host.d
        accepted = 0
        for width in (host.width - 1, host.width, host.width + 1):
            for hs in product(range(c - 2, d + 2), repeat=width):
                # a height below c - 1 names no bottom-anchored column
                closed = (
                    width == host.width
                    and min(hs) >= c - 1
                    and {(a + i, y) for i, h in enumerate(hs) for y in range(c, h + 1)}
                    in ideals
                )
                if closed:
                    assert walk_from_heights(hs, host, p).hs == hs
                    accepted += 1
                else:
                    with pytest.raises(NotAnIdeal):
                        walk_from_heights(hs, host, p)
        assert accepted == len(ideals)

    @pytest.mark.parametrize("p", (2, 3, 5))
    @pytest.mark.parametrize("host", (Rect(0, 1, 0, 2), Rect(0, 2, 0, 1)))
    def test_point_sets_accepted_exactly_when_ideal(self, host, p):
        ideals = set(all_rect_ideals(host, p))
        # every subset of the host, alone and with one point just outside it
        cells = sorted(rect_points(host)) + [(host.b + 1, host.c)]
        accepted = 0
        for k in range(len(cells) + 1):
            for pts in map(frozenset, combinations(cells, k)):
                if pts in ideals:
                    assert walk_of(IdealSet2(host, pts), p).ideal_points() == pts
                    accepted += 1
                else:
                    with pytest.raises(NotAnIdeal):
                        walk_of(IdealSet2(host, pts), p)
        assert accepted == len(ideals)


class TestBoundaryBijection:
    def test_reference_ideal_size(self):
        assert walk_size(staircase_walk()) == 44

    def test_empty_and_full(self):
        host = Rect(0, 4, 0, 4)
        assert empty_walk(host, 2).ideal_points() == frozenset()
        assert len(full_walk(host, 2).ideal_points()) == 25
        assert walk_of(IdealSet2(host, frozenset()), 2) == empty_walk(host, 2)

    def test_small_inverse(self):
        s = IdealSet2(Rect(0, 2, 0, 2), frozenset({(0, 0), (1, 0)}))
        assert walk_of(s, 2).points == ((0, 0), (1, 0))

    def test_round_trip_exhaustive_small(self):
        for p in (2, 3):
            for host in (Rect(0, 3, 0, 3), Rect(-1, 2, 0, 2), Rect(0, 4, -2, 1)):
                seen = set()
                for pts in all_rect_ideals(host, p):
                    w = walk_of(IdealSet2(host, pts), p)
                    assert validate_walk(w.host, w.p, w.points)
                    assert w.ideal_points() == pts
                    assert w.points not in seen
                    seen.add(w.points)

    def test_not_an_ideal_rejected(self):
        host = Rect(0, 2, 0, 2)
        with pytest.raises(NotAnIdeal):
            walk_of(IdealSet2(host, frozenset({(1, 1)})), 2)  # no floor
        with pytest.raises(NotAnIdeal):
            # increasing heights
            walk_of(IdealSet2(host, frozenset({(1, 0), (1, 1)})), 2)

    def test_closure_forces_wide_rows_near_top(self):
        # a row of width p below the top edge must lift its left end
        host = Rect(0, 4, 0, 4)
        bad = frozenset({(x, 0) for x in range(5)} - {(4, 0)})
        # width-4 bottom row with empty top rows: violates the p-span rule
        with pytest.raises(NotAnIdeal):
            walk_of(IdealSet2(host, bad), 2)

    @given(walk_strategy())
    @settings(max_examples=300, deadline=None)
    def test_random_profiles_round_trip(self, w):
        assert validate_walk(w.host, w.p, w.points)
        assert walk_of(ideal_of(w), w.p) == w

    def test_invalid_walk_raises_on_ideal_of(self):
        with pytest.raises(InvalidWalk):
            walk_from_corners(Rect(0, 2, 0, 2), 2, ((0, 0), (2, 0)))

    def test_serialization_round_trip(self):
        w = staircase_walk()
        assert walk_from_obj(walk_to_obj(w), 2) == w
        e = empty_walk(Rect(0, 1, 0, 1), 3)
        assert walk_from_obj(walk_to_obj(e), 3) == e
        assert walk_to_obj(e)["points"] == []


class TestLattice:
    def test_identities(self):
        w = staircase_walk()
        host, p = w.host, w.p
        assert meet(w, full_walk(host, p)) == w
        assert join(w, empty_walk(host, p)) == w
        assert walk_leq(empty_walk(host, p), w)
        assert walk_leq(w, w)
        assert walk_leq(w, full_walk(host, p))

    def test_host_mismatch(self):
        with pytest.raises(HostMismatch):
            walk_leq(empty_walk(Rect(0, 1, 0, 1), 2), empty_walk(Rect(0, 2, 0, 2), 2))
        with pytest.raises(HostMismatch):
            meet(empty_walk(Rect(0, 1, 0, 1), 2), empty_walk(Rect(0, 1, 0, 1), 3))

    @given(walk_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_meet_join_against_sets(self, w1, rng):
        # pick a second ideal of the same host by mutating a copy
        ideals = all_rect_ideals(w1.host, w1.p)
        w2 = walk_of(IdealSet2(w1.host, rng.choice(ideals)), w1.p)
        s1, s2 = w1.ideal_points(), w2.ideal_points()
        assert meet(w1, w2).ideal_points() == s1 & s2
        assert join(w1, w2).ideal_points() == s1 | s2
        assert walk_leq(meet(w1, w2), w1)
        assert walk_leq(w1, join(w1, w2))
        assert walk_leq(w1, w2) == (s1 <= s2)

    def test_equal_walks_hash_equal_across_routes(self):
        host, p = Rect(0, 3, 0, 3), 2
        by_heights = walk_from_heights((3, 2, 1, 0), host, p)
        by_meet = meet(
            walk_from_heights((3, 3, 1, 0), host, p),
            walk_from_heights((3, 2, 2, 0), host, p),
        )
        corners = ((0, 3), (0, 2), (1, 2), (1, 1), (2, 1), (2, 0), (3, 0))
        by_corners = walk_from_corners(host, p, corners)
        routes = (by_heights, by_meet, by_corners)
        assert len({id(w) for w in routes}) == 3
        for w in routes:
            memo = {w: "found"}
            for other in routes:
                assert other == w and hash(other) == hash(w)
                assert memo[other] == "found"
        # equality sees host and p as well as the heights
        assert walk_from_heights((3, 2, 1, 0), host, 3) not in {by_heights}
        assert walk_from_heights((5, 4, 3, 2), rect_shifted(host, 0, 2), p) not in {by_heights}

    def test_lattice_laws_exhaustive_tiny(self):
        host, p = Rect(0, 2, 0, 2), 2
        walks = [walk_of(IdealSet2(host, s), p) for s in all_rect_ideals(host, p)]
        for w1 in walks:
            assert meet(w1, w1) == w1 and join(w1, w1) == w1
            for w2 in walks:
                assert meet(w1, w2) == meet(w2, w1)
                assert join(w1, w2) == join(w2, w1)
                assert join(w1, meet(w1, w2)) == w1
                assert meet(w1, join(w1, w2)) == w1


class TestResultsAreClosed:
    """The lattice operations, restriction, the extensions and interval
    enumeration build walks from heights without re-validating them; the
    validating decoders must accept every such result unchanged."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_results_decode_back(self, data):
        w1 = data.draw(walk_strategy())
        host, p = w1.host, w1.p
        w2 = walk_from_heights(draw_heights(data.draw, host, p), host, p)
        a = data.draw(st.integers(host.a, host.b))
        b = data.draw(st.integers(a, host.b))
        c = data.draw(st.integers(host.c, host.d))
        d = data.draw(st.integers(c, host.d))
        sub = Rect(a, b, c, d)
        grow = [data.draw(st.integers(0, 2)) for _ in range(4)]
        big = Rect(host.a - grow[0], host.b + grow[1], host.c - grow[2], host.d + grow[3])
        part = restrict(w1, sub)
        lo, hi = meet(w1, w2), join(w1, w2)
        results = [
            lo,
            hi,
            part,
            lowest_extension(w1, big),
            highest_extension(w1, big),
            lowest_extension(part, host),
            highest_extension(part, host),
        ]
        results.extend(islice(enumerate_interval(lo, hi), 50))
        for w in results:
            assert walk_from_heights(w.heights(), w.host, w.p) == w
            assert walk_from_corners(w.host, w.p, w.points) == w


class TestRestrictShift:
    def test_restrict_to_self(self):
        w = staircase_walk()
        assert restrict(w, w.host) == w

    def test_restrict_empty(self):
        assert restrict(empty_walk(Rect(0, 5, 0, 5), 2), Rect(1, 3, 1, 2)).is_empty

    def test_restrict_matches_set_intersection(self):
        w = staircase_walk()
        sub = Rect(0, 3, 0, 7)
        got = restrict(w, sub)
        expect = frozenset(q for q in w.ideal_points() if sub.contains(q))
        assert got.ideal_points() == expect

    def test_restrict_full_cover(self):
        w = staircase_walk()
        sub = Rect(0, 3, 0, 3)
        assert restrict(w, sub) == full_walk(sub, 2)

    def test_shift_round_trip(self):
        w = staircase_walk()
        assert shift(w, 0, 0) == w
        assert shift(shift(w, 1, -2), -1, 2) == w
        moved = shift(w, 2, 3)
        assert moved.ideal_points() == frozenset(
            (x + 2, y + 3) for (x, y) in w.ideal_points()
        )


class TestExtensions:
    def test_full_restriction_extends_to_full(self):
        small, big = Rect(1, 3, 1, 3), Rect(0, 5, 0, 5)
        z = full_walk(small, 2)
        assert highest_extension(z, big) == full_walk(big, 2)

    def test_empty_extension_same_anchor(self):
        host = Rect(0, 3, 0, 3)
        assert highest_extension(empty_walk(host, 2), host).is_empty
        assert lowest_extension(empty_walk(host, 2), host).is_empty

    def test_spec_growth_case(self):
        # host [0,1]^2 ideal {(0,0),(1,0)} inside [0,2]^2 at p=2: the point
        # (2,0) would force (0,1) upward, so the largest extension stops
        small, big = Rect(0, 1, 0, 1), Rect(0, 2, 0, 2)
        z = walk_of(IdealSet2(small, frozenset({(0, 0), (1, 0)})), 2)
        assert highest_extension(z, big).points == ((0, 0), (1, 0))

    def test_identity_extension(self):
        host = Rect(0, 3, 0, 3)
        z = walk_of(IdealSet2(host, frozenset({(0, 0)})), 2)
        assert lowest_extension(z, host) == z
        assert highest_extension(full_walk(host, 2), host) == full_walk(host, 2)

    def test_host_mismatch(self):
        with pytest.raises(HostMismatch):
            lowest_extension(empty_walk(Rect(0, 3, 0, 3), 2), Rect(0, 2, 0, 2))

    def test_extension_lives_on_the_given_host(self):
        # the upper transport builds its answer on its target, so memoized
        # walks share the one host object a search passes in
        transport_upper_bound.cache_clear()
        small, big = Rect(0, 1, 0, 1), Rect(0, 3, 0, 3)
        z = walk_of(IdealSet2(small, frozenset({(0, 0), (1, 0)})), 2)
        assert highest_extension(z, big).host is big
        assert transport_upper_bound(z, 1, -2, big).host is big

    @pytest.mark.parametrize("seed", range(6))
    def test_against_brute_oracle(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(120):
            p = rng.choice([2, 3, 5])
            big = Rect(rng.randint(-2, 0), rng.randint(1, 4), rng.randint(-3, 0), rng.randint(1, 4))
            a = rng.randint(big.a, big.b)
            b = rng.randint(a, big.b)
            c = rng.randint(big.c, big.d)
            d = rng.randint(c, big.d)
            small = Rect(a, b, c, d)
            pts = rng.choice(all_rect_ideals(small, p))
            z = walk_of(IdealSet2(small, pts), p)
            hi = highest_extension(z, big)
            lo = lowest_extension(z, big)
            assert hi.ideal_points() == brute_extension(pts, small, big, "largest", p)
            assert lo.ideal_points() == brute_extension(pts, small, big, "smallest", p)
            assert restrict(hi, small) == z
            assert restrict(lo, small) == z
            assert walk_leq(lo, hi)


class TestExtensionIdentityChain:
    def nested_rects(self, rng):
        a1 = rng.randint(-2, 0)
        b1 = a1 + rng.randint(2, 6)
        c1 = rng.randint(-2, 0)
        d1 = c1 + rng.randint(2, 6)
        u1 = Rect(a1, b1, c1, d1)
        a2 = rng.randint(a1, b1)
        b2 = rng.randint(a2, b1)
        c2 = rng.randint(c1, d1)
        d2 = rng.randint(c2, d1)
        u2 = Rect(a2, b2, c2, d2)
        a3 = rng.randint(a2, b2)
        b3 = rng.randint(a3, b2)
        c3 = rng.randint(c2, d2)
        d3 = rng.randint(c3, d2)
        return u1, u2, Rect(a3, b3, c3, d3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chain(self, p):
        rng = random.Random(42 * p)
        for _ in range(300):
            u1, u2, u3 = self.nested_rects(rng)
            w = walk_of(IdealSet2(u1, rng.choice(all_rect_ideals(u1, p))), p)
            z = walk_of(IdealSet2(u3, rng.choice(all_rect_ideals(u3, p))), p)
            assert restrict(restrict(w, u2), u3) == restrict(w, u3)
            assert highest_extension(highest_extension(z, u2), u1) == highest_extension(z, u1)
            assert lowest_extension(lowest_extension(z, u2), u1) == lowest_extension(z, u1)
            assert restrict(highest_extension(z, u2), u3) == z
            assert restrict(lowest_extension(z, u2), u3) == z


def _transport_targets(h: Rect) -> tuple[Rect, ...]:
    """The host, a rectangle inside it, one covering it, one overlapping
    it, and two outside it (below right and above left)."""
    return (
        h,
        Rect(h.a + 1, h.b, h.c, h.d - 1),
        Rect(h.a - 1, h.b + 2, h.c - 2, h.d + 1),
        Rect(h.a + 1, h.b + 3, h.c + 1, h.d + 4),
        Rect(h.b + 1, h.b + 3, h.c - 5, h.c - 1),
        Rect(h.a - 3, h.a - 1, h.d + 1, h.d + 3),
    )


class TestTransports:
    """Both transports against their point-set definitions, for every ideal
    of a few small hosts."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "host", [Rect(0, 2, 0, 2), Rect(0, 3, 0, 1), Rect(1, 2, -1, 2)], ids=str
    )
    def test_against_point_sets(self, p, host):
        dys = sorted({-p * p, -p * p + p, -p, -1, 0, 1})
        shifts = [(dx, dy) for dx in (-1, 0, 1, 2) for dy in dys]
        targets = _transport_targets(host)
        for pts in all_rect_ideals(host, p):
            w = walk_of(IdealSet2(host, pts), p)
            missing = [m for m in rect_points(host) if m not in pts]
            for dx, dy in shifts:
                for target in targets:
                    reached = frozenset(
                        q
                        for q in rect_points(target)
                        if any(precedes2(q, (ux + dx, uy + dy), p) for ux, uy in pts)
                    )
                    allowed = frozenset(
                        q
                        for q in rect_points(target)
                        if not any(
                            precedes2(m, (q[0] + dx, q[1] + dy), p) for m in missing
                        )
                    )
                    assert ideal_transport(w, dx, dy, target) == walk_of(
                        IdealSet2(target, reached), p
                    )
                    assert transport_upper_bound(w, dx, dy, target) == walk_of(
                        IdealSet2(target, allowed), p
                    )


# the hosts of TestTransports
TRANSPORT_HOSTS = [Rect(0, 2, 0, 2), Rect(0, 3, 0, 1), Rect(1, 2, -1, 2)]


class TestDual:
    """The order dual against point sets, for every ideal of the transport
    hosts, and the point-list extremal walks against a scan of all ideals."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("host", TRANSPORT_HOSTS, ids=str)
    def test_negated_complement(self, p, host):
        neg = host.negated()
        assert neg == Rect(-host.b, -host.a, -host.d, -host.c)
        for pts in all_rect_ideals(host, p):
            w = walk_of(IdealSet2(host, pts), p)
            rest = frozenset((-x, -y) for x, y in rect_points(host) if (x, y) not in pts)
            assert dual(w) == walk_of(IdealSet2(neg, rest), p)
            assert dual(dual(w)) == w

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("host", TRANSPORT_HOSTS, ids=str)
    def test_swaps_meet_and_join(self, p, host):
        walks = [walk_of(IdealSet2(host, pts), p) for pts in all_rect_ideals(host, p)]
        for w1 in walks:
            for w2 in walks:
                assert dual(meet(w1, w2)) == join(dual(w1), dual(w2))
                assert dual(join(w1, w2)) == meet(dual(w1), dual(w2))
                assert walk_leq(w1, w2) == walk_leq(dual(w2), dual(w1))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("host", TRANSPORT_HOSTS, ids=str)
    def test_empty_and_full(self, p, host):
        assert dual(empty_walk(host, p)) == full_walk(host.negated(), p)
        assert dual(full_walk(host, p)) == empty_walk(host.negated(), p)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("host", TRANSPORT_HOSTS, ids=str)
    def test_point_lists_against_scan(self, p, host):
        ideals = all_rect_ideals(host, p)
        inside = list(rect_points(host))
        lists = [[]] + [[u] for u in inside] + [[u, v] for u in inside for v in inside]
        for pts in lists:
            holding = [s for s in ideals if all(u in s for u in pts)]
            least = frozenset.intersection(*holding)
            assert least in holding
            assert smallest_containing(pts, host, p) == walk_of(
                IdealSet2(host, least), p
            )
            avoiding = [s for s in ideals if not any(u in s for u in pts)]
            most = frozenset().union(*avoiding)
            assert most in avoiding
            assert largest_avoiding(pts, host, p) == walk_of(IdealSet2(host, most), p)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("host", TRANSPORT_HOSTS, ids=str)
    def test_points_outside_host(self, p, host):
        a, b, c, d = host.a, host.b, host.c, host.d
        outside = [(a - 1, c - 1), (a - 1, d), (b + 1, c), (a, d + 1), (b, c - 1)]
        for out in outside:
            for pts in ([], [(a, c)], [(b, d)]):
                with pytest.raises(NoSuchWalk):
                    smallest_containing(pts + [out], host, p)
                assert largest_avoiding(pts + [out], host, p) == largest_avoiding(
                    pts, host, p
                )
        assert largest_avoiding(outside, host, p) == full_walk(host, p)


class TestExtremalWalks:
    def all_walks(self, host, p):
        return [walk_of(IdealSet2(host, s), p) for s in all_rect_ideals(host, p)]

    @pytest.mark.parametrize("p,side", [(2, 3), (2, 4), (3, 3), (3, 5)])
    def test_against_family_scan(self, p, side):
        host = Rect(0, side, 0, side)
        walks = self.all_walks(host, p)
        for ax in range(side + 1):
            for ay in range(side + 1):
                anchor = (ax, ay)
                start = [w for w in walks if w.points and w.points[0] == anchor]
                end = [w for w in walks if w.points and w.points[-1] == anchor]
                through = [w for w in walks if walk_contains(w, anchor)]
                for kind, fam, lowest in (
                    ("lowest-start", start, True),
                    ("highest-start", start, False),
                    ("lowest-end", end, True),
                    ("highest-end", end, False),
                    ("lowest-through", through, True),
                ):
                    try:
                        got = extremal_walk(host, anchor, kind, p)
                    except NoSuchWalk:
                        assert not fam, (kind, anchor)
                        continue
                    assert fam, (kind, anchor)
                    assert got in fam, (kind, anchor, got.points)
                    if lowest:
                        assert all(walk_leq(got, w) for w in fam)
                    else:
                        assert all(walk_leq(w, got) for w in fam)

    def test_lowest_end_bottom_right(self):
        host = Rect(0, 4, 0, 4)
        w = extremal_walk(host, (4, 0), "lowest-end", 2)
        assert w.points[-1] == (4, 0)
        assert (4, 0) in w.ideal_points()

    def test_interior_anchor_rejected(self):
        with pytest.raises(NoSuchWalk):
            extremal_walk(Rect(0, 4, 0, 4), (2, 2), "lowest-start", 2)
        with pytest.raises(NoSuchWalk):
            extremal_walk(Rect(0, 4, 0, 4), (5, 0), "lowest-through", 2)


class TestIntervalHelpers:
    def test_bounds_inverted(self):
        from coneideal.slicing import enumerate_interval

        host = Rect(0, 2, 0, 2)
        with pytest.raises(BoundsInverted):
            list(enumerate_interval(full_walk(host, 2), empty_walk(host, 2)))

    @pytest.mark.parametrize("p,side", [(2, 1), (2, 3), (3, 2), (3, 3)])
    def test_full_interval_matches_brute(self, p, side):
        from coneideal.slicing import count_interval, enumerate_interval

        host = Rect(0, side, 0, side)
        lo, hi = empty_walk(host, p), full_walk(host, p)
        listed = list(enumerate_interval(lo, hi))
        assert len(listed) == len(all_rect_ideals(host, p))
        assert count_interval(lo, hi) == len(listed)
        keys = [w.heights() for w in listed]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_single_point_interval(self):
        from coneideal.slicing import count_interval, enumerate_interval

        w = staircase_walk()
        assert list(enumerate_interval(w, w)) == [w]
        assert count_interval(w, w) == 1

    def test_two_by_two_product_interval(self):
        from coneideal.slicing import enumerate_interval

        host = Rect(0, 1, 0, 1)
        got = list(enumerate_interval(empty_walk(host, 2), full_walk(host, 2)))
        assert len(got) == 6  # down-sets of the 2x2 product grid

    @pytest.mark.parametrize("seed", range(4))
    def test_random_subinterval_counts(self, seed):
        from coneideal.slicing import count_interval, enumerate_interval

        rng = random.Random(77 + seed)
        for _ in range(60):
            p = rng.choice([2, 3])
            side = rng.randint(1, 4)
            host = Rect(0, side, 0, side)
            walks = [walk_of(IdealSet2(host, s), p) for s in all_rect_ideals(host, p)]
            w1, w2 = rng.choice(walks), rng.choice(walks)
            lo, hi = meet(w1, w2), join(w1, w2)
            listed = list(enumerate_interval(lo, hi))
            brute = [w for w in walks if walk_leq(lo, w) and walk_leq(w, hi)]
            assert {w.points for w in listed} == {w.points for w in brute}
            assert count_interval(lo, hi) == len(brute)
