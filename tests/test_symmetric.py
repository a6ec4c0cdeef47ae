"""Rotation-invariant enumeration: shells, bounds, reach types, gates."""

import random

import pytest

from coneideal.codes import violated_condition
from coneideal.errors import InconsistentInput
from coneideal.oracle import (
    LayerReach,
    accumulate_layers,
    all_rect_ideals,
    box_poset,
    brute_ideals,
    brute_layer_candidates,
    classify_reach,
    ideal_3d,
    is_consistent_sym,
    is_palindromic,
    rotation_invariant_3d,
)
from coneideal.order import Params
from coneideal.slicing import enumerate_interval
from coneideal.symmetric import (
    SymLayerSequence,
    _reach_cases,
    accumulated_walks,
    assembled_points,
    count_layer_sym,
    enumerate_all_r1,
    enumerate_layer_sym,
    symmetric_bounds,
)
from coneideal.walks import (
    IdealSet2,
    Rect,
    empty_walk,
    full_walk,
    walk_from_corners,
    walk_of,
)

from conftest import (
    EXAMPLE_IDEAL,
    SYMMETRIC_S,
    SYMMETRIC_SECTIONS,
    SYMMETRIC_T,
    symmetric_walks,
)

PARAMS_REF = Params(p=3, m=9, r=1)


@pytest.fixture(scope="module")
def reference_seq():
    return SymLayerSequence(PARAMS_REF, symmetric_walks())


class TestAccumulate:
    def test_origin_only(self):
        params = Params(p=2, m=3, r=1)
        seq = SymLayerSequence(
            params, [walk_from_corners(Rect(0, 0, 0, 0), 2, ((0, 0),))]
        )
        [section] = accumulate_layers(seq, 1)
        assert section.points == frozenset({(0, 0)})

    def test_assembly_is_rotation_fixed(self, reference_seq):
        pts = assembled_points(reference_seq)
        assert rotation_invariant_3d(pts)

    def test_reference_sections(self, reference_seq):
        # accumulated over all seven shells: cross sections of the finished
        # ideal, heights 0..6
        walks = accumulated_walks(reference_seq, 7)
        for j in range(7):
            assert walks[j].points == SYMMETRIC_SECTIONS[j], j

    def test_sections_match_assembled_slices(self, reference_seq):
        pts = assembled_points(reference_seq)
        walks = accumulated_walks(reference_seq, 7)
        for j in range(7):
            slice_pts = frozenset((x, y) for (x, y, z) in pts if z == j)
            assert walks[j].ideal_points() == slice_pts

    @pytest.mark.parametrize(
        "p,m", [(2, 3), (2, 6), (2, 9), (2, 12), (2, 15), (3, 3), (3, 6), (5, 3)]
    )
    def test_height_sections_match_point_sets(self, p, m):
        # every search node of the stream: the shells below depth 1..n
        params = Params(p=p, m=m, r=1)
        nodes = {
            walks[:i]
            for walks in enumerate_all_r1(params, mode="stream")
            for i in range(1, params.n + 1)
        }
        for shells in nodes:
            seq = SymLayerSequence(params, list(shells))
            i = len(shells)
            assert accumulated_walks(seq, i) == [
                walk_of(s, p) for s in accumulate_layers(seq, i)
            ], shells


class TestSymmetricBounds:
    def test_reference_run(self, reference_seq):
        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            s_walk, t_walk = symmetric_bounds(i, cum, PARAMS_REF)
            assert s_walk.points == SYMMETRIC_S[i], i
            assert t_walk.points == SYMMETRIC_T[i], i

    def test_lower_below_upper_everywhere(self, reference_seq):
        from coneideal.walks import walk_leq

        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            s_walk, t_walk = symmetric_bounds(i, cum, PARAMS_REF)
            assert walk_leq(s_walk, t_walk)


class TestClassifyReach:
    def test_examples(self):
        host = Rect(0, 1, 0, 1)
        assert classify_reach(empty_walk(host, 2), 1) is LayerReach.INNER
        assert classify_reach(full_walk(host, 2), 1) is LayerReach.CORNER
        w = walk_of(IdealSet2(host, frozenset({(0, 0)})), 2)
        assert classify_reach(w, 1) is LayerReach.EDGE

    def test_zero_shell(self):
        host = Rect(0, 0, 0, 0)
        assert classify_reach(empty_walk(host, 2), 0) is LayerReach.INNER
        assert classify_reach(full_walk(host, 2), 0) is LayerReach.CORNER

    def test_partition_of_emissions(self, reference_seq):
        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            for w in enumerate_layer_sym(i, cum, PARAMS_REF):
                hs = w.heights()
                kind = classify_reach(w, i)
                if kind is LayerReach.CORNER:
                    assert hs[i] >= 0
                elif kind is LayerReach.EDGE:
                    assert hs[i] < 0 <= hs[i - 1]
                else:
                    assert hs[i - 1] < 0 and hs[i] < 0


class TestReachCases:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_cases_partition_palindromic_layers(self, p):
        for i in range(1, 7):
            host = Rect(0, i, 0, i)
            seen: dict = {}
            labels = set()
            for lower, upper in _reach_cases(i, p):
                kind = classify_reach(lower, i)
                col = i if kind is LayerReach.CORNER else i - 1
                label = (kind, lower.hs[col] if kind is not LayerReach.INNER else None)
                assert label not in labels, (p, i, label)
                labels.add(label)
                for w in enumerate_interval(lower, upper):
                    assert w not in seen, (p, i, w.hs, seen.get(w), label)
                    seen[w] = label
                    assert classify_reach(w, i) is kind, (p, i, w.hs)
                    if kind is not LayerReach.INNER:
                        assert w.hs[col] == label[1], (p, i, w.hs)
            # together the cases hold every palindromic layer, except the
            # column-(i-1) layers at height v with p v > (p - 1) i or, once
            # i >= p, without the point (v, i - p)
            expected = {
                w
                for w in enumerate_interval(empty_walk(host, p), full_walk(host, p))
                if is_palindromic(w, i)
                and (
                    classify_reach(w, i) is not LayerReach.EDGE
                    or p * w.hs[i - 1] <= (p - 1) * i
                    and (i < p or w.contains((w.hs[i - 1], i - p)))
                )
            }
            assert set(seen) == expected, (p, i)


class TestSoundnessBeyondOracle:
    """Emitted r = 1 sets are invariant ideals at n = 4, past the 80-point
    brute-force oracle."""

    @pytest.mark.parametrize(
        "p,m,sample", [(2, 12, None), (3, 6, 200), (5, 3, 200)]
    )
    def test_streamed_sets_are_ideals(self, p, m, sample):
        params = Params(p=p, m=m, r=1)
        assert params.n == 4
        stream = list(enumerate_all_r1(params, mode="stream"))
        if sample is not None:
            stream = random.Random(7).sample(stream, sample)
        for walks in stream:
            pts = assembled_points(SymLayerSequence(params, list(walks)))
            assert violated_condition(pts, params) is None, [w.hs for w in walks]


class TestPalindrome:
    def test_violating_layer_rejected(self):
        params = Params(p=2, m=9, r=1)
        host = Rect(0, 2, 0, 2)
        # contains (0,2) but not (2,0): top row and right column differ
        pts = frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)})
        w = walk_of(IdealSet2(host, pts), 2)
        assert not is_palindromic(w, 2)
        seq = SymLayerSequence(
            params,
            [
                walk_from_corners(Rect(0, 0, 0, 0), 2, ((0, 0),)),
                full_walk(Rect(0, 1, 0, 1), 2),
            ],
        )
        assert not is_consistent_sym(2, w, seq)

    def test_every_emission_palindromic(self, reference_seq):
        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            for w in enumerate_layer_sym(i, cum, PARAMS_REF):
                assert is_palindromic(w, i)


class TestLayerEnumeration:
    def test_first_shell_after_origin(self):
        params = Params(p=2, m=3, r=1)
        seq = SymLayerSequence(params, [walk_from_corners(Rect(0, 0, 0, 0), 2, ((0, 0),))])
        cum = accumulated_walks(seq, 1)
        got = {w.ideal_points() for w in enumerate_layer_sym(1, cum, params)}
        expected = {
            frozenset(),
            frozenset({(0, 0)}),
            frozenset({(0, 0), (1, 0), (0, 1)}),
            frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),
        }
        assert got == expected

    def test_empty_prefix_always_allows_empty(self):
        params = Params(p=3, m=9, r=1)
        walks = [empty_walk(Rect(0, j, 0, j), 3) for j in range(3)]
        seq = SymLayerSequence(params, walks)
        cum = accumulated_walks(seq, 3)
        got = enumerate_layer_sym(3, cum, params)
        assert any(w.is_empty for w in got)

    def test_reference_choices_emitted(self, reference_seq):
        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            cands = enumerate_layer_sym(i, cum, PARAMS_REF)
            keys = [w.heights() for w in cands]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert reference_seq.walks[i] in cands
            st = symmetric_bounds(i, cum, PARAMS_REF)
            assert count_layer_sym(i, *st, PARAMS_REF) == len(cands)


def _exhaustive_gate_check(p: int, n: int) -> int:
    params = Params(p=p, m=3 * n // (p - 1), r=1)
    assert params.n == n
    nodes = 0

    def rec(prefix_sets, prefix_walks, i):
        nonlocal nodes
        if i > n:
            return
        nodes += 1
        truth = set(brute_layer_candidates("symmetric", prefix_sets, i, params))
        seq = SymLayerSequence(params, prefix_walks)
        cum = accumulated_walks(seq, i) if i else []
        fast = enumerate_layer_sym(i, cum, params)
        fast_sets = {w.ideal_points() for w in fast}
        assert len(fast_sets) == len(fast)
        assert fast_sets == truth
        st = symmetric_bounds(i, cum, params)
        assert count_layer_sym(i, *st, params) == len(truth)
        host = Rect(0, i, 0, i)
        for cand in all_rect_ideals(host, p):
            w = walk_of(IdealSet2(host, cand), p)
            ok = cand in truth
            assert is_consistent_sym(i, w, seq, method="full") == ok
            assert is_consistent_sym(i, w, seq, method="reduced") == ok
        for w in fast:
            nxt = dict(prefix_sets)
            nxt[i] = w.ideal_points()
            rec(nxt, prefix_walks + [w], i + 1)

    rec({}, [], 0)
    return nodes


class TestGateSoundness:
    def test_exhaustive_p3_n2(self):
        assert _exhaustive_gate_check(3, 2) >= 8

    def test_exhaustive_p2_n3(self):
        assert _exhaustive_gate_check(2, 3) >= 25


def _cyclically_symmetric_box_count(n: int) -> int:
    """Classical product formula for rotation-invariant down-sets of the
    product-ordered n-cube (side-n box)."""
    from fractions import Fraction

    total = Fraction(1)
    for i in range(1, n + 1):
        total *= Fraction(3 * i - 1, 3 * i - 2)
        for j in range(i, n + 1):
            total *= Fraction(n + i + j - 1, 2 * i + j - 1)
    assert total.denominator == 1
    return int(total)


class TestEnumerateAllSymmetric:
    @pytest.mark.parametrize("p,m,expected", [(2, 3, 5), (3, 3, 20)])
    def test_known_counts(self, p, m, expected):
        params = Params(p=p, m=m, r=1)
        assert enumerate_all_r1(params, mode="count") == expected

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (5, 3)])
    def test_product_regime_matches_classical_formula(self, p, m):
        # below threshold (n < p) the order is the product order, so the
        # count must equal the classical cyclically-symmetric box tally
        params = Params(p=p, m=m, r=1)
        assert params.n < p
        expected = _cyclically_symmetric_box_count(params.n + 1)
        assert enumerate_all_r1(params, mode="count") == expected

    def test_large_count_p7_m3(self):
        # cross-check: an orbit-poset referee (rotation orbits of the box,
        # decided in coordinate-sum order) also counts 826 540 at (7, 3)
        assert enumerate_all_r1(Params(p=7, m=3, r=1), mode="count") == 826540

    def test_cone_case_matches_oracle(self):
        params = Params(p=2, m=6, r=1)
        brute = len(brute_ideals(box_poset(params.n, 2), symmetry="rotation"))
        assert enumerate_all_r1(params, mode="count") == brute

    def test_stream_matches_brute_sets(self):
        params = Params(p=2, m=6, r=1)
        seen = set()
        for walks in enumerate_all_r1(params, mode="stream"):
            pts = assembled_points(SymLayerSequence(params, list(walks)))
            assert pts not in seen
            seen.add(pts)
        assert seen == set(
            brute_ideals(box_poset(params.n, 2), symmetry="rotation")
        )

    def test_every_emission_closed_and_fixed(self):
        params = Params(p=3, m=3, r=1)
        for walks in enumerate_all_r1(params, mode="stream"):
            pts = assembled_points(SymLayerSequence(params, list(walks)))
            assert ideal_3d(pts, params.n, params.p)
            assert rotation_invariant_3d(pts)

    def test_worked_example_is_emitted(self):
        params = Params(p=3, m=6, r=1)
        found = 0
        for walks in enumerate_all_r1(params, mode="stream"):
            if assembled_points(SymLayerSequence(params, list(walks))) == EXAMPLE_IDEAL:
                found += 1
        assert found == 1

    def test_shards_partition_stream(self):
        params = Params(p=3, m=3, r=1)
        whole = [
            tuple(w.points for w in ls)
            for ls in enumerate_all_r1(params, mode="stream")
        ]
        parts = []
        for idx in range(2):
            parts.extend(
                tuple(w.points for w in ls)
                for ls in enumerate_all_r1(params, mode="stream", shards=(idx, 2))
            )
        assert sorted(parts) == sorted(whole)


class TestReducedConsistencyPaths:
    def test_random_agreement_between_paths(self):
        # the implied-condition path must agree with the literal one on
        # arbitrary candidates, consistent prefixes or not
        rng = random.Random(321)
        for p in (2, 3):
            params = Params(p=p, m=6 if p == 2 else 3, r=1)
            for _ in range(60):
                depth = rng.randint(1, min(3, params.n))
                walks = []
                ok = True
                for j in range(depth):
                    host = Rect(0, j, 0, j)
                    choices = [
                        walk_of(IdealSet2(host, s), p)
                        for s in all_rect_ideals(host, p)
                    ]
                    seq = SymLayerSequence(params, walks)
                    cands = [
                        w
                        for w in choices
                        if is_consistent_sym(j, w, seq, method="full")
                    ]
                    if not cands:
                        ok = False
                        break
                    walks.append(rng.choice(cands))
                if not ok:
                    continue
                seq = SymLayerSequence(params, walks)
                i = depth
                host = Rect(0, i, 0, i)
                for s in all_rect_ideals(host, p):
                    w = walk_of(IdealSet2(host, s), p)
                    assert is_consistent_sym(
                        i, w, seq, method="full"
                    ) == is_consistent_sym(i, w, seq, method="reduced")


# A p = 2 shell stack whose last layer, heights (5, 2, 2, 1, 1, 0), the
# engine emits at shell 5 although its rotated copies do not close: the
# corner case u = 0 of the shell-5 layer intervals lets it through.  The
# r = 1 stream at p = 2, m = 15 ends 12 of its 5 236 ideals with this layer;
# at m = 18 the stream stops with InconsistentInput once it builds on it.
DEFECT_PARAMS = Params(p=2, m=18, r=1)
DEFECT_SHELLS = (
    ((0, 0),),
    ((1, 1),),
    ((2, 2),),
    ((2, 3), (2, 2), (3, 2)),
    ((1, 4), (1, 2), (2, 2), (2, 1), (4, 1)),
    ((0, 5), (0, 2), (2, 2), (2, 1), (4, 1), (4, 0), (5, 0)),
)


def _defect_stack(k: int) -> SymLayerSequence:
    walks = [
        walk_from_corners(Rect(0, j, 0, j), 2, DEFECT_SHELLS[j]) for j in range(k)
    ]
    return SymLayerSequence(DEFECT_PARAMS, walks)


class TestShellFiveDefect:
    def test_non_ideal_section_raises_inconsistent_input(self):
        with pytest.raises(InconsistentInput):
            accumulated_walks(_defect_stack(6), 6)

    def test_defect_layer_is_emitted_and_rejected(self):
        seq = _defect_stack(5)
        cands = enumerate_layer_sym(5, accumulated_walks(seq, 5), DEFECT_PARAMS)
        assert len(cands) == 61
        bad = _defect_stack(6).walks[5]
        assert bad.heights() == (5, 2, 2, 1, 1, 0)
        assert bad in cands
        assert not is_consistent_sym(5, bad, seq, method="full")
        assert not is_consistent_sym(5, bad, seq, method="reduced")

    @pytest.mark.xfail(
        strict=True,
        reason="known r = 1 soundness defect: the shell-5 corner case u = 0 "
        "emits a layer whose rotated copies do not close",
    )
    def test_every_emitted_layer_is_consistent(self):
        seq = _defect_stack(5)
        cands = enumerate_layer_sym(5, accumulated_walks(seq, 5), DEFECT_PARAMS)
        assert all(is_consistent_sym(5, w, seq) for w in cands)
