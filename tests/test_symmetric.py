"""Rotation-invariant enumeration: shells, bounds, reach types, gates."""

import random

import pytest

from coneideal import symmetric
from coneideal.codes import violated_condition
from coneideal.errors import InconsistentInput
from coneideal.order import Params
from coneideal.slicing import enumerate_interval
from coneideal.symmetric import (
    SymLayerSequence,
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
    walk_from_heights,
    walk_of,
)

from conftest import (
    EXAMPLE_IDEAL,
    SYMMETRIC_S,
    SYMMETRIC_SECTIONS,
    SYMMETRIC_T,
    symmetric_walks,
)
from oracle import (
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
    reach_case_layers,
    rotation_invariant_3d,
    walk_contains,
    walk_from_corners,
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
            seq = SymLayerSequence(params, shells)
            i = len(shells)
            assert accumulated_walks(seq, i) == [
                walk_of(s, p) for s in accumulate_layers(seq, i)
            ], shells

    @pytest.mark.parametrize("p,m", [(2, 6), (2, 9), (3, 3), (5, 3)])
    @pytest.mark.parametrize("mode", ["count", "stream"])
    def test_search_carries_point_set_sections(self, monkeypatch, p, m, mode):
        # every node's sections, as the per-shell step leaves them, are the
        # sections of that node's own shells; the step runs once per node
        # below the root, never for a leaf; the bounds see exactly the last
        # p sections of the node whose window they are computed for, with
        # None below them, once per distinct (depth, window)
        params = Params(p=p, m=m, r=1)
        total = enumerate_all_r1(params, mode="count")
        real_first, real_bounds = symmetric.depth_first, symmetric.symmetric_bounds
        real_step = symmetric._with_shell
        node_shells = ()
        windows = {(0, ())}
        bounds_calls, checked, steps = 0, 0, 0

        def sections_of(shells):
            i = len(shells)
            seq = SymLayerSequence(params, shells)
            return [walk_of(s, p) for s in accumulate_layers(seq, i)] if i else []

        def first(root, last, interval, choices, child, count_of, mode, shards, window):
            def spied_window(depth, node):
                nonlocal node_shells
                node_shells = node[0]
                return window(depth, node)

            def spied_child(depth, node, w):
                nonlocal checked
                kid = shells, sections = child(depth, node, w)
                if depth < params.n:
                    assert list(sections) == sections_of(shells), [w.hs for w in shells]
                    checked += 1
                    windows.add((depth + 1, sections[max(0, depth + 1 - p) :]))
                return kid

            return real_first(
                root, last, interval, choices, spied_child, count_of, mode, shards,
                spied_window,
            )

        def bounds(i, cum, params):
            nonlocal bounds_calls
            assert len(node_shells) == i
            low = max(0, i - p)
            seen = (None,) * low + tuple(sections_of(node_shells)[low:])
            assert tuple(cum) == seen, [w.hs for w in node_shells]
            bounds_calls += 1
            return real_bounds(i, cum, params)

        def step(sections, w, built):
            nonlocal steps
            steps += 1
            return real_step(sections, w, built)

        monkeypatch.setattr(symmetric, "depth_first", first)
        monkeypatch.setattr(symmetric, "symmetric_bounds", bounds)
        monkeypatch.setattr(symmetric, "_with_shell", step)
        found = enumerate_all_r1(params, mode=mode)
        if mode == "stream":
            found = sum(1 for _ in found)
        assert found == total > 1
        assert steps == checked > params.n
        assert bounds_calls == len(windows)


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
            st = symmetric_bounds(i, cum, PARAMS_REF)
            for w in enumerate_layer_sym(i, *st, PARAMS_REF):
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
        params = Params(p=p, m=3, r=1)
        for i in range(1, 7):
            host = Rect(0, i, 0, i)
            empty, full = empty_walk(host, p), full_walk(host, p)
            listed = enumerate_layer_sym(i, empty, full, params)
            keys = [w.hs for w in listed]
            assert keys == sorted(set(keys)), (p, i)
            assert count_layer_sym(i, empty, full, params) == len(listed), (p, i)
            # the rule keeps every palindromic layer, except the column-(i-1)
            # layers at height v with p v > (p - 1) i or, once i >= p,
            # without the point (v, i - p)
            expected = {
                w
                for w in enumerate_interval(empty, full)
                if is_palindromic(w, i)
                and (
                    classify_reach(w, i) is not LayerReach.EDGE
                    or p * w.hs[i - 1] <= (p - 1) * i
                    and (i < p or walk_contains(w, (w.hs[i - 1], i - p)))
                )
            }
            assert set(listed) == expected, (p, i)

    @pytest.mark.parametrize("p,m", [(2, 15), (3, 6), (5, 3), (7, 3), (3, 9)])
    def test_rule_equals_reach_case_intervals(self, monkeypatch, p, m):
        # every key a count visits: the listings of the levels above the
        # last and the counts of the last
        params = Params(p=p, m=m, r=1)
        bounds = []

        def spy(i, cum, params):
            found = symmetric_bounds(i, cum, params)
            bounds.append((i, *found))
            return found

        monkeypatch.setattr(symmetric, "symmetric_bounds", spy)
        enumerate_all_r1(params, mode="count")
        keys = set(bounds)
        assert len(keys) > 40
        for i, s_walk, t_walk in keys:
            truth = reach_case_layers(i, s_walk, t_walk, p)
            assert enumerate_layer_sym(i, s_walk, t_walk, params) == truth
            assert count_layer_sym(i, s_walk, t_walk, params) == len(truth)


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
            pts = assembled_points(SymLayerSequence(params, walks))
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
            st = symmetric_bounds(i, cum, PARAMS_REF)
            for w in enumerate_layer_sym(i, *st, PARAMS_REF):
                assert is_palindromic(w, i)


class TestLayerEnumeration:
    def test_first_shell_after_origin(self):
        params = Params(p=2, m=3, r=1)
        seq = SymLayerSequence(params, [walk_from_corners(Rect(0, 0, 0, 0), 2, ((0, 0),))])
        cum = accumulated_walks(seq, 1)
        st = symmetric_bounds(1, cum, params)
        got = {w.ideal_points() for w in enumerate_layer_sym(1, *st, params)}
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
        got = enumerate_layer_sym(3, *symmetric_bounds(3, cum, params), params)
        assert any(w.is_empty for w in got)

    def test_reference_choices_emitted(self, reference_seq):
        for i in range(1, 7):
            cum = accumulated_walks(
                SymLayerSequence(PARAMS_REF, reference_seq.walks[:i]), i
            )
            st = symmetric_bounds(i, cum, PARAMS_REF)
            cands = enumerate_layer_sym(i, *st, PARAMS_REF)
            keys = [w.heights() for w in cands]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert reference_seq.walks[i] in cands
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
        st = symmetric_bounds(i, cum, params)
        fast = enumerate_layer_sym(i, *st, params)
        fast_sets = {w.ideal_points() for w in fast}
        assert len(fast_sets) == len(fast)
        assert fast_sets == truth
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
            pts = assembled_points(SymLayerSequence(params, walks))
            assert pts not in seen
            seen.add(pts)
        assert seen == set(
            brute_ideals(box_poset(params.n, 2), symmetry="rotation")
        )

    def test_every_emission_closed_and_fixed(self):
        params = Params(p=3, m=3, r=1)
        for walks in enumerate_all_r1(params, mode="stream"):
            pts = assembled_points(SymLayerSequence(params, walks))
            assert ideal_3d(pts, params.n, params.p)
            assert rotation_invariant_3d(pts)

    def test_worked_example_is_emitted(self):
        params = Params(p=3, m=6, r=1)
        found = 0
        for walks in enumerate_all_r1(params, mode="stream"):
            if assembled_points(SymLayerSequence(params, walks)) == EXAMPLE_IDEAL:
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

    def test_stream_stops_after_known_prefix(self):
        emitted = 0
        with pytest.raises(InconsistentInput) as info:
            for _ in enumerate_all_r1(DEFECT_PARAMS, mode="stream"):
                emitted += 1
        assert str(info.value) == (
            "section 1 heights [5, 5, 5, 4, 4, 4] are not an ideal"
        )
        assert emitted == 26938

    @pytest.mark.parametrize(
        "shells,message",
        [
            # a full shell 2 over empty shells: row 2 of section 0 starts
            # over the empty column 0
            (((-1,), (-1, -1), (2, 2, 2)), "section 0 has a gap in column 0"),
            (
                ((0,), (1, 1), (1, 1, 0), (2, 2, -1, -1)),
                "section 1 has a gap in column 2",
            ),
        ],
    )
    def test_gap_raises_inconsistent_input(self, shells, message):
        walks = tuple(
            walk_from_heights(hs, Rect(0, j, 0, j), 2) for j, hs in enumerate(shells)
        )
        seq = SymLayerSequence(Params(p=2, m=9, r=1), walks)
        with pytest.raises(InconsistentInput) as info:
            accumulated_walks(seq, len(walks))
        assert str(info.value) == message

    def test_defect_layer_is_emitted_and_rejected(self):
        seq = _defect_stack(5)
        cum = accumulated_walks(seq, 5)
        cands = enumerate_layer_sym(
            5, *symmetric_bounds(5, cum, DEFECT_PARAMS), DEFECT_PARAMS
        )
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
        cum = accumulated_walks(seq, 5)
        cands = enumerate_layer_sym(
            5, *symmetric_bounds(5, cum, DEFECT_PARAMS), DEFECT_PARAMS
        )
        assert all(is_consistent_sym(5, w, seq) for w in cands)
