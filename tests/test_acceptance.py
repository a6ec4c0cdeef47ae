"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated runtime budget."""

import random
import time
from contextlib import contextmanager

import pytest

from coneideal.codes import (
    agl_generators,
    build_code,
    in_sum_zero_space,
    is_invariant_ideal,
    preimage_count,
    preimage_list,
    verify_invariance,
)
from coneideal.order import Params
from coneideal.slicing import (
    LayerSequence,
    backward_bounds,
    enumerate_all_r3,
    forward_bounds,
    ideal_transport,
)
from coneideal.symmetric import (
    SymLayerSequence,
    accumulated_walks,
    assembled_points,
    enumerate_all_r1,
    enumerate_layer_sym,
    symmetric_bounds,
)
from coneideal.walks import (
    IdealSet2,
    Rect,
    Walk,
    empty_walk,
    full_walk,
    highest_extension,
    lowest_extension,
    walk_leq,
    walk_of,
)

from conftest import (
    BACKWARD_X,
    BACKWARD_Y,
    EXAMPLE_DEFINING,
    EXAMPLE_IDEAL,
    FORWARD_X,
    FORWARD_Y,
    SYMMETRIC_S,
    SYMMETRIC_T,
    backward_walks,
    forward_walks,
    symmetric_walks,
)
from oracle import (
    LayerOracle,
    all_rect_ideals,
    box_poset,
    brute_ideals,
    brute_layer_candidates,
    code_fingerprint,
    equivalent_transport_conditions,
    is_consistent_backward,
    is_consistent_forward,
    is_consistent_sym,
    restrict,
)


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


@contextmanager
def criterion(announce, number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {number} FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        announce(f"ACCEPTANCE {number} FAIL  {label} (over budget: {elapsed:.1f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_s}s: {elapsed:.1f}s")
    announce(f"ACCEPTANCE {number} PASS  {label} ({elapsed:.2f}s)")


def test_criterion_1_worked_example_golden(announce):
    with criterion(announce, 1, "worked-example defining set (p=3, m=6, r=1)", 1.0):
        params = Params(p=3, m=6, r=1)
        assert is_invariant_ideal(EXAMPLE_IDEAL, params)
        assert preimage_count(EXAMPLE_IDEAL, params) == 42
        got = preimage_list(EXAMPLE_IDEAL, params)
        assert got == EXAMPLE_DEFINING
        assert got[0] == 0 and got[-1] == 495


def test_criterion_2_oracle_equivalence_r3(announce):
    with criterion(announce, 2, "plain-ideal counts match brute force", 60.0):
        saw_conical = False
        for p, m, known in ((2, 3, 20), (3, 3, 980), (2, 6, None)):
            params = Params(p=p, m=m, r=3)
            fast = enumerate_all_r3(params, mode="count")
            brute = len(brute_ideals(box_poset(params.n, p)))
            assert fast == brute, (p, m, fast, brute)
            if known is not None:
                assert fast == known, (p, m)
            saw_conical = saw_conical or params.n >= p
        assert saw_conical  # at least one case beyond the product-order regime


def test_criterion_3_oracle_equivalence_r1(announce):
    with criterion(announce, 3, "symmetric-ideal counts match brute force", 60.0):
        for p, m, known in ((2, 3, 5), (3, 3, 20), (2, 6, None)):
            params = Params(p=p, m=m, r=1)
            fast = enumerate_all_r1(params, mode="count")
            brute = len(brute_ideals(box_poset(params.n, p), symmetry="rotation"))
            assert fast == brute, (p, m, fast, brute)
            if known is not None:
                assert fast == known, (p, m)


def _exhaustive_bounds(p: int, n: int, direction: str) -> int:
    params = Params(p=p, m=3 * n // (p - 1), r=3)
    assert params.n == n
    oracle = LayerOracle(params)
    walks = [walk_of(IdealSet2(oracle.rect, s), p) for s in oracle.ideals]
    nodes = 0

    def rec(assigned):
        nonlocal nodes
        i = (n - len(assigned)) if direction == "backward" else len(assigned)
        if not 0 <= i <= n:
            return
        nodes += 1
        seq = LayerSequence(params, {h: walks[k] for h, k in assigned.items()})
        if direction == "backward":
            lo, hi = backward_bounds(i, seq, params)
        else:
            lo, hi = forward_bounds(i, seq, params)
        fast = {k for k, w in enumerate(walks) if walk_leq(lo, w) and walk_leq(w, hi)}
        truth = set(oracle.consistent_next(assigned, i))
        assert fast == truth, (direction, i, assigned)
        for k in truth:
            nxt = dict(assigned)
            nxt[i] = k
            rec(nxt)

    rec({})
    return nodes


def test_criterion_4_bounds_soundness_exhaustive(announce):
    with criterion(announce, 4, "interval bounds equal consistency, exhaustively", 300.0):
        total = 0
        for p, n in ((2, 3), (3, 2)):
            for direction in ("backward", "forward"):
                total += _exhaustive_bounds(p, n, direction)
        assert total > 14000


def _exhaustive_gates(p: int, n: int) -> int:
    params = Params(p=p, m=3 * n // (p - 1), r=1)
    assert params.n == n
    nodes = 0

    def rec(prefix_sets, prefix_walks, i):
        nonlocal nodes
        if i > n:
            return
        nodes += 1
        truth = {
            frozenset(s)
            for s in brute_layer_candidates("symmetric", prefix_sets, i, params)
        }
        seq = SymLayerSequence(params, prefix_walks)
        cum = accumulated_walks(seq, i) if i else []
        fast = enumerate_layer_sym(i, *symmetric_bounds(i, cum, params), params)
        assert {w.ideal_points() for w in fast} == truth
        host = Rect(0, i, 0, i)
        for cand in all_rect_ideals(host, p):
            w = walk_of(IdealSet2(host, cand), p)
            assert is_consistent_sym(i, w, seq) == (cand in truth)
        for w in fast:
            nxt = dict(prefix_sets)
            nxt[i] = w.ideal_points()
            rec(nxt, prefix_walks + [w], i + 1)

    rec({}, [], 0)
    return nodes


def test_criterion_5_symmetric_gate_soundness(announce):
    with criterion(announce, 5, "symmetric layer gates equal consistency", 300.0):
        assert _exhaustive_gates(2, 3) >= 25
        assert _exhaustive_gates(3, 2) >= 8


def _random_nested_rects(rng):
    a1 = rng.randint(-2, 0)
    b1 = a1 + rng.randint(2, 5)
    c1 = rng.randint(-2, 0)
    d1 = c1 + rng.randint(2, 5)
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


def test_criterion_6_equivalences_randomized(announce):
    label = "six-way transport forms + restriction/extension chain, 10k x 3 each"
    with criterion(announce, 6, label, 600.0):
        for p in (2, 3, 5):
            rng = random.Random(1234 + p)
            ideal_cache = {}

            def ideals_of(rect):
                key = (rect, p)
                if key not in ideal_cache:
                    ideal_cache[key] = all_rect_ideals(rect, p)
                return ideal_cache[key]

            for _ in range(10_000):
                n = rng.randint(1, 3)
                u = Rect(0, n, 0, n)
                pool = ideals_of(u)
                j = IdealSet2(u, rng.choice(pool))
                k = IdealSet2(u, rng.choice(pool))
                a, b = rng.randint(0, 3), rng.randint(0, 3)
                six = equivalent_transport_conditions(j, k, a, b, p)
                assert len(set(six)) == 1, (p, a, b, six)
            for _ in range(10_000):
                u1, u2, u3 = _random_nested_rects(rng)
                w = walk_of(IdealSet2(u1, rng.choice(ideals_of(u1))), p)
                z = walk_of(IdealSet2(u3, rng.choice(ideals_of(u3))), p)
                assert restrict(restrict(w, u2), u3) == restrict(w, u3)
                assert highest_extension(highest_extension(z, u2), u1) == (
                    highest_extension(z, u1)
                )
                assert lowest_extension(lowest_extension(z, u2), u1) == (
                    lowest_extension(z, u1)
                )
                assert restrict(highest_extension(z, u2), u3) == z
                assert restrict(lowest_extension(z, u2), u3) == z


def _is_single_horizontal_step(w: Walk) -> bool:
    return len(w.points) == 2 and w.points[0][1] == w.points[1][1]


def _composition_instance(rng, walks, w_k, u):
    w_j = rng.choice(walks)
    w_l = rng.choice(walks)
    a, b, c, d = (rng.randint(0, 4) for _ in range(4))
    if not walk_leq(ideal_transport(w_j, a, -b, u), w_k):
        return None
    if not walk_leq(ideal_transport(w_k, c, -d, u), w_l):
        return None
    return walk_leq(ideal_transport(w_j, a + c, -b - d, u), w_l)


def test_criterion_7_composition_counterexamples(announce):
    label = "transport composition: valid regime clean, degenerate regimes break"
    with criterion(announce, 7, label, 600.0):
        rng = random.Random(20240809)
        # the three degenerate middle layers each admit counterexamples
        for regime, p, n in (("empty", 2, 2), ("full", 2, 2), ("single", 7, 2)):
            u = Rect(0, n, 0, n)
            walks = [walk_of(IdealSet2(u, s), p) for s in all_rect_ideals(u, p)]
            if regime == "empty":
                mids = [empty_walk(u, p)]
            elif regime == "full":
                mids = [full_walk(u, p)]
            else:
                mids = [w for w in walks if _is_single_horizontal_step(w)]
                assert mids  # single horizontal steps exist below threshold
            failures = 0
            for _ in range(4000):
                verdict = _composition_instance(rng, walks, rng.choice(mids), u)
                if verdict is False:
                    failures += 1
            assert failures >= 1, regime
        # middle layers satisfying all three hypotheses never break
        checked = 0
        pools = {}
        for p, n in ((2, 2), (2, 3), (3, 2)):
            u = Rect(0, n, 0, n)
            walks = [walk_of(IdealSet2(u, s), p) for s in all_rect_ideals(u, p)]
            good = [
                w
                for w in walks
                if not w.is_empty
                and not w.is_full
                and not _is_single_horizontal_step(w)
            ]
            pools[(p, n)] = (u, walks, good)
        keys = list(pools)
        while checked < 10_000:
            u, walks, good = pools[rng.choice(keys)]
            verdict = _composition_instance(rng, walks, rng.choice(good), u)
            if verdict is None:
                continue
            assert verdict is True
            checked += 1


def test_criterion_8_reference_replays(announce):
    with criterion(announce, 8, "reference slicing runs replay inside their bounds", 60.0):
        # backward run, p=3, n=8
        params_b = Params(p=3, m=12, r=3)
        seq_b = LayerSequence(params_b, backward_walks())
        for i in range(7, -1, -1):
            lo, hi = backward_bounds(i, seq_b, params_b)
            assert lo.points == BACKWARD_X[i]
            assert hi.points == BACKWARD_Y[i]
            assert walk_leq(lo, seq_b.walks[i]) and walk_leq(seq_b.walks[i], hi)
            assert is_consistent_backward(i, seq_b.walks[i], seq_b)
        # forward run, p=3, n=6
        params_f = Params(p=3, m=9, r=3)
        seq_f = LayerSequence(params_f, forward_walks())
        for i in range(1, 7):
            lo, hi = forward_bounds(i, seq_f, params_f)
            if i in FORWARD_X:
                assert lo.points == FORWARD_X[i]
            if i in FORWARD_Y:
                assert hi.points == FORWARD_Y[i]
            assert walk_leq(lo, seq_f.walks[i]) and walk_leq(seq_f.walks[i], hi)
            assert is_consistent_forward(i, seq_f.walks[i], seq_f)
        # symmetric run, p=3, n=6, including the printed textual labels
        params_s = Params(p=3, m=9, r=1)
        walks = symmetric_walks()
        for i in range(1, 7):
            cum = accumulated_walks(SymLayerSequence(params_s, walks[:i]), i)
            s_walk, t_walk = symmetric_bounds(i, cum, params_s)
            assert s_walk.points == SYMMETRIC_S[i]
            assert t_walk.points == SYMMETRIC_T[i]
            assert walks[i] in enumerate_layer_sym(i, s_walk, t_walk, params_s)
        assert SYMMETRIC_S[1] == () and SYMMETRIC_T[1] == ((1, 1),)
        assert SYMMETRIC_S[2] == () and SYMMETRIC_T[2] == ((2, 2),)
        assert SYMMETRIC_S[3] == () and SYMMETRIC_T[3] == ((3, 3),)
        assert SYMMETRIC_S[6] == ()


def test_criterion_9_code_correspondence(announce):
    with criterion(announce, 9, "codes distinct, group-invariant, dichotomy holds", 120.0):
        for p, m, expected in ((2, 3, 5), (3, 3, 20)):
            params = Params(p=p, m=m, r=1)
            ideals = [
                assembled_points(SymLayerSequence(params, ws))
                for ws in enumerate_all_r1(params, mode="stream")
            ]
            assert len(ideals) == expected
            gens = agl_generators(params)
            fingerprints = set()
            for ideal in ideals:
                spec = build_code(ideal, params)
                fingerprints.add(code_fingerprint(spec))
                assert verify_invariance(spec, gens)
                assert in_sum_zero_space(spec) == (len(ideal) > 0)
            assert len(fingerprints) == expected
