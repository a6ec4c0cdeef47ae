"""Layer slicing for plain 3D ideals: bounds, consistency, enumeration."""

import functools
import random

import pytest

from coneideal.codes import violated_condition
from coneideal.order import Params
from coneideal.slicing import (
    LayerSequence,
    backward_bounds,
    enumerate_all_r3,
    forward_bounds,
    layers_to_points,
    nonempty_lookahead,
    nonfull_lookback,
    square_host,
)
from coneideal.symmetric import enumerate_all_r1
from coneideal.walks import IdealSet2, Rect, empty_walk, full_walk, walk_leq, walk_of

from conftest import (
    BACKWARD_ALPHA,
    BACKWARD_U,
    BACKWARD_X,
    BACKWARD_Y,
    FORWARD_BETA,
    FORWARD_X,
    FORWARD_Y,
    backward_walks,
    forward_walks,
)
from oracle import (
    LayerOracle,
    all_rect_ideals,
    box_poset,
    brute_ideals,
    brute_layer_candidates,
    equivalent_transport_conditions,
    is_consistent_backward,
    is_consistent_forward,
    rect_points,
)


@pytest.fixture(scope="module")
def backward_seq():
    params = Params(p=3, m=12, r=3)
    return params, LayerSequence(params, backward_walks())


@pytest.fixture(scope="module")
def forward_seq():
    params = Params(p=3, m=9, r=3)
    return params, LayerSequence(params, forward_walks())


class TestLookahead:
    def test_reference_alphas(self, backward_seq):
        _, seq = backward_seq
        for i, alpha in BACKWARD_ALPHA.items():
            assert nonempty_lookahead(i, seq) == alpha

    def test_reference_betas(self, forward_seq):
        _, seq = forward_seq
        for i, beta in FORWARD_BETA.items():
            assert nonfull_lookback(i, seq.walks, seq.params.p) == beta

    def test_absent_when_all_empty(self):
        params = Params(p=3, m=3, r=3)
        u = square_host(params.n)
        seq = LayerSequence(params, {1: empty_walk(u, 3), 2: empty_walk(u, 3)})
        assert nonempty_lookahead(0, seq) is None


class TestBackwardBounds:
    def test_reference_run(self, backward_seq):
        params, seq = backward_seq
        for i in range(7, -1, -1):
            lo, hi = backward_bounds(i, seq, params)
            assert lo.points == BACKWARD_X[i], i
            assert hi.points == BACKWARD_Y[i], i
            assert walk_leq(lo, seq.walks[i]) and walk_leq(seq.walks[i], hi)

    def test_reference_consistency(self, backward_seq):
        params, seq = backward_seq
        for i in range(params.n - 1, -1, -1):
            assert is_consistent_backward(i, seq.walks[i], seq)

    def test_top_layer_unconstrained(self):
        params = Params(p=2, m=6, r=3)
        seq = LayerSequence(params)
        lo, hi = backward_bounds(params.n, seq, params)
        assert lo.is_empty and hi.is_full

    def test_full_layers_force_full(self):
        params = Params(p=2, m=6, r=3)
        u = square_host(params.n)
        seq = LayerSequence(params, {i: full_walk(u, 2) for i in (1, 2)})
        lo, hi = backward_bounds(0, seq, params)
        assert lo.is_full and hi.is_full

    def test_empty_layers_above_small_box(self):
        # below-threshold box: the order is the product order, so empty
        # upper layers leave the next layer unconstrained
        params = Params(p=3, m=3, r=3)
        u = square_host(params.n)
        seq = LayerSequence(params, {i: empty_walk(u, 3) for i in (1, 2)})
        lo, hi = backward_bounds(0, seq, params)
        assert lo.is_empty and hi.is_full

    def test_violating_candidate_rejected(self, backward_seq):
        params, seq = backward_seq
        assert not is_consistent_backward(7, empty_walk(BACKWARD_U, 3), seq)


class TestForwardBounds:
    def test_reference_run(self, forward_seq):
        params, seq = forward_seq
        for i in range(1, 7):
            lo, hi = forward_bounds(i, seq, params)
            if i in FORWARD_X:
                assert lo.points == FORWARD_X[i], i
            if i in FORWARD_Y:
                assert hi.points == FORWARD_Y[i], i
            assert walk_leq(lo, seq.walks[i]) and walk_leq(seq.walks[i], hi)

    def test_bottom_layer_unconstrained(self):
        params = Params(p=2, m=6, r=3)
        seq = LayerSequence(params)
        lo, hi = forward_bounds(0, seq, params)
        assert lo.is_empty and hi.is_full

    def test_empty_previous_layer_forces_empty(self):
        params = Params(p=2, m=6, r=3)
        u = square_host(params.n)
        seq = LayerSequence(params, {0: empty_walk(u, 2)})
        lo, hi = forward_bounds(1, seq, params)
        assert lo.is_empty and hi.is_empty

    def test_small_box_containment_only(self):
        params = Params(p=3, m=3, r=3)
        u = square_host(params.n)
        seq = LayerSequence(params, {0: full_walk(u, 3)})
        lo, hi = forward_bounds(1, seq, params)
        assert lo.is_empty and hi.is_full


def _sound_bounds_everywhere(p: int, n: int, direction: str) -> int:
    """Exhaustively compare walk intervals with the raw slab oracle over all
    partially built consistent sequences; returns the node count."""
    params = Params(p=p, m=3 * n // (p - 1), r=3)
    assert params.n == n
    oracle = LayerOracle(params)
    walks = [walk_of(IdealSet2(oracle.rect, s), p) for s in oracle.ideals]
    nodes = 0

    def rec(assigned: dict[int, int]) -> None:
        nonlocal nodes
        i = (n - len(assigned)) if direction == "backward" else len(assigned)
        if i < 0 or i > n:
            return
        nodes += 1
        seq = LayerSequence(params, {h: walks[k] for h, k in assigned.items()})
        if direction == "backward":
            lo, hi = backward_bounds(i, seq, params)
            ok = {
                k
                for k, w in enumerate(walks)
                if walk_leq(lo, w) and walk_leq(w, hi)
            }
            direct = {
                k for k, w in enumerate(walks) if is_consistent_backward(i, w, seq)
            }
        else:
            lo, hi = forward_bounds(i, seq, params)
            ok = {
                k
                for k, w in enumerate(walks)
                if walk_leq(lo, w) and walk_leq(w, hi)
            }
            direct = {
                k for k, w in enumerate(walks) if is_consistent_forward(i, w, seq)
            }
        truth = set(oracle.consistent_next(assigned, i))
        assert ok == truth, (direction, i, assigned)
        assert direct == truth, (direction, i, assigned)
        for k in truth:
            nxt = dict(assigned)
            nxt[i] = k
            rec(nxt)

    rec({})
    return nodes


class TestBoundsSoundness:
    def test_exhaustive_p3_n2(self):
        assert _sound_bounds_everywhere(3, 2, "backward") > 100
        assert _sound_bounds_everywhere(3, 2, "forward") > 100

    def test_exhaustive_p2_n3(self):
        assert _sound_bounds_everywhere(2, 3, "backward") > 5000
        assert _sound_bounds_everywhere(2, 3, "forward") > 5000

    def test_matches_raw_layer_candidates(self):
        # independent formulation via full 3D closure of explicit slabs
        params = Params(p=2, m=6, r=3)
        u = square_host(params.n)
        ideals = all_rect_ideals(u, 2)
        rng = random.Random(5)
        for _ in range(10):
            top = rng.choice(ideals)
            prefix = {2: top}
            cands = brute_layer_candidates("backward", prefix, 1, params)
            seq = LayerSequence(params, {2: walk_of(IdealSet2(u, top), 2)})
            lo, hi = backward_bounds(1, seq, params)
            fast = {
                frozenset(w.ideal_points())
                for s in ideals
                for w in [walk_of(IdealSet2(u, s), 2)]
                if walk_leq(lo, w) and walk_leq(w, hi)
            }
            assert fast == set(cands)


def _box_ideal_count(s: int) -> int:
    """Classical product formula for down-sets of the product-ordered
    side-s cube."""
    from fractions import Fraction

    total = Fraction(1)
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            for k in range(1, s + 1):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
    assert total.denominator == 1
    return int(total)


class TestEnumerateAll:
    @pytest.mark.parametrize(
        "p,m,expected", [(2, 3, 20), (3, 3, 980)]
    )
    def test_known_counts(self, p, m, expected):
        params = Params(p=p, m=m, r=3)
        assert params.n < p  # product regime: the classical tally applies
        assert _box_ideal_count(params.n + 1) == expected
        assert enumerate_all_r3(params, mode="count") == expected
        assert enumerate_all_r3(params, mode="count", direction="forward") == expected

    def test_cone_case_matches_oracle(self):
        params = Params(p=2, m=6, r=3)
        brute = len(brute_ideals(box_poset(params.n, 2)))
        assert enumerate_all_r3(params, mode="count") == brute
        assert (
            enumerate_all_r3(params, mode="count", direction="forward") == brute
        )

    def test_stream_matches_brute_sets(self):
        params = Params(p=2, m=6, r=3)
        seen = set()
        for layers in enumerate_all_r3(params, mode="stream"):
            pts = layers_to_points(layers)
            assert pts not in seen
            seen.add(pts)
        assert seen == set(brute_ideals(box_poset(params.n, 2)))

    def test_stream_canonical_order(self):
        params = Params(p=2, m=6, r=3)
        keys = []
        for layers in enumerate_all_r3(params, mode="stream"):
            keys.append(tuple(layers[z].heights() for z in range(params.n, -1, -1)))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_directions_agree_on_sets(self):
        params = Params(p=3, m=3, r=3)
        back = {layers_to_points(ls) for ls in enumerate_all_r3(params, mode="stream")}
        fwd = {
            layers_to_points(ls)
            for ls in enumerate_all_r3(params, mode="stream", direction="forward")
        }
        assert back == fwd

    def test_shards_partition_stream(self):
        params = Params(p=2, m=6, r=3)
        whole = [
            tuple(w.points for w in ls)
            for ls in enumerate_all_r3(params, mode="stream")
        ]
        parts = []
        for idx in range(3):
            parts.extend(
                tuple(w.points for w in ls)
                for ls in enumerate_all_r3(params, mode="stream", shards=(idx, 3))
            )
        assert sorted(parts) == sorted(whole)
        counts = sum(
            enumerate_all_r3(params, mode="count", shards=(i, 3)) for i in range(3)
        )
        assert counts == len(whole)
        # past streaming size: each shard's count merges its own nodes only
        params = Params(p=2, m=12, r=3)
        counts = [
            enumerate_all_r3(params, mode="count", shards=(i, 3)) for i in range(3)
        ]
        assert all(counts) and sum(counts) == _r3_count(2, 12, "backward")


@functools.lru_cache(maxsize=None)
def _r3_count(p: int, m: int, direction: str) -> int:
    return enumerate_all_r3(Params(p=p, m=m, r=3), mode="count", direction=direction)


class TestTransferMatrixCount:
    """The r = 3 count merges the nodes of a level that share their window
    of neighbouring layers; its referees are the streams, the other
    direction and the rotation-fixed r = 1 count."""

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    @pytest.mark.parametrize("p,m", [(2, 3), (2, 6), (3, 3), (2, 9)])
    def test_count_equals_stream_length(self, p, m, direction):
        params = Params(p=p, m=m, r=3)
        stream = enumerate_all_r3(params, mode="stream", direction=direction)
        assert _r3_count(p, m, direction) == sum(1 for _ in stream)

    @pytest.mark.parametrize("m", [3, 6, 9, 12])
    def test_directions_agree_at_p2(self, m):
        assert _r3_count(2, m, "backward") == _r3_count(2, m, "forward")

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 6), (2, 9), (2, 12), (3, 3)])
    def test_congruent_to_r1_mod_3(self, p, m):
        # rotation permutes the r = 3 ideals in orbits of size 1 or 3, and
        # the fixed ones are the r = 1 ideals
        r1 = enumerate_all_r1(Params(p=p, m=m, r=1), mode="count")
        assert (_r3_count(p, m, "backward") - r1) % 3 == 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "p,m,directions,expected,r1",
    [
        # 5 224 is the orbit referee's r = 1 count; the engine's 5 236 is
        # wrong (ROADMAP open item 1) but also 1 mod 3
        (2, 15, ("backward", "forward"), 5_940_849_784, 5_224),
        (3, 6, ("backward",), 145_739_510, 1_256),
    ],
)
def test_transfer_matrix_pins(p, m, directions, expected, r1):
    """Counts past the reach of the per-node search: about 8 s per
    direction at (2,15,3) and 35 s at (3,6,3)."""
    for direction in directions:
        assert _r3_count(p, m, direction) == expected
    assert (expected - r1) % 3 == 0


class TestSixWayEquivalence:
    def test_trivial_cases(self):
        u = Rect(0, 2, 0, 2)
        empty = IdealSet2(u, frozenset())
        full = IdealSet2(u, frozenset(rect_points(u)))
        some = IdealSet2(u, frozenset({(0, 0)}))
        assert all(equivalent_transport_conditions(empty, some, 1, 1, 2))
        assert all(equivalent_transport_conditions(some, full, 2, 0, 2))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_randomized_agreement(self, p):
        rng = random.Random(900 + p)
        for _ in range(400):
            n = rng.randint(1, 3)
            u = Rect(0, n, 0, n)
            ideals = all_rect_ideals(u, p)
            j = IdealSet2(u, rng.choice(ideals))
            k = IdealSet2(u, rng.choice(ideals))
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            six = equivalent_transport_conditions(j, k, a, b, p)
            assert len(set(six)) == 1, (p, n, a, b, six)


@pytest.mark.slow
def test_sharded_streams_are_ideals_p2_m12():
    """Down-closure of every set in four shards of p=2, m=12 (n = 4, 125
    box points, past the 80-point brute-force oracle): an independent
    referee of the bounds and their memoized transports.  Opt-in: about
    74 000 sets at about 1 ms each."""
    params = Params(p=2, m=12, r=3)
    for direction in ("backward", "forward"):
        for index in (5, 37):
            shard = [
                layers_to_points(layers)
                for layers in enumerate_all_r3(
                    params, mode="stream", direction=direction, shards=(index, 1024)
                )
            ]
            assert shard and len(set(shard)) == len(shard), (direction, index)
            for pts in shard:
                assert violated_condition(pts, params) is None, (direction, index)


@pytest.mark.parametrize(
    "p,m,r", [(3, 6, 1), (5, 3, 1), (2, 9, 1), (2, 6, 3), (3, 3, 3)]
)
def test_shards_split_both_engines(p, m, r):
    params = Params(p=p, m=m, r=r)
    search = enumerate_all_r3 if r == 3 else enumerate_all_r1
    whole = [tuple(ws) for ws in search(params, mode="stream")]
    total = search(params, mode="count")
    assert total == len(whole)
    for shards in (2, 4, 7):
        streams = [
            [tuple(ws) for ws in search(params, mode="stream", shards=(i, shards))]
            for i in range(shards)
        ]
        counts = [
            search(params, mode="count", shards=(i, shards)) for i in range(shards)
        ]
        assert counts == [len(s) for s in streams]
        assert sum(counts) == total
        assert all(counts), counts
        union = [ws for s in streams for ws in s]
        assert len(set(union)) == len(union)
        assert set(union) == set(whole)


# (p, m, r, direction, shards): streams whose groups are compared with the
# flat stream; at (2,3,1) with 3 shards and (2,3,3) with 7 the breadth-first
# expansion reaches the leaves, and the split is made among the last level's
# (node, walk) pairs
GROUPED = [
    (2, 6, 3, "backward", None), (2, 6, 3, "forward", None),
    (2, 6, 3, "backward", 4), (2, 6, 3, "forward", 4),
    (2, 3, 3, "backward", 7), (2, 3, 3, "forward", 7),
    (2, 9, 1, None, None), (2, 9, 1, None, 4), (2, 3, 1, None, 3),
]


@pytest.mark.parametrize("p,m,r,direction,shards", GROUPED)
def test_stream_is_the_flattened_groups(p, m, r, direction, shards):
    params = Params(p=p, m=m, r=r)
    if r == 3:
        search = functools.partial(enumerate_all_r3, direction=direction)
    else:
        search = enumerate_all_r1
    parts = [None] if shards is None else [(i, shards) for i in range(shards)]
    sizes = []
    for part in parts:
        stream = list(search(params, mode="stream", shards=part))
        groups = list(search(params, mode="groups", shards=part))
        assert stream == [b + (w,) + a for b, ws, a in groups for w in ws]
        # a group holds one node's layers, on the side the search grew from:
        # going backward the new layer is layer 0, else it is layer n
        for before, _, after in groups:
            assert len(before) + len(after) == params.n
            assert (before if direction == "backward" else after) == ()
        sizes.append(len(stream))
    assert sum(sizes) == search(params, mode="count")
    if (p, m) == (2, 3):  # the leaves split by position: sizes differ by one
        assert sizes == {1: [2, 2, 1], 3: [3] * 6 + [2]}[r]
