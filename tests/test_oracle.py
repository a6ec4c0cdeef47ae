"""The brute-force referee must agree with itself across formulations."""

import pytest

from coneideal.order import Params
from coneideal.walks import Rect
from oracle import (
    LayerOracle,
    TooLarge,
    all_rect_ideals,
    box_poset,
    brute_extension,
    brute_ideals,
    brute_ideals_by_filter,
    brute_layer_candidates,
    ideal_3d,
    poset_from,
    precedes2,
    rect_points,
    rect_poset,
)


class TestBruteIdeals:
    def test_single_point(self):
        poset = poset_from([(0, 0, 0)], lambda u, v: u == v)
        assert len(brute_ideals(poset)) == 2

    def test_boolean_cube(self):
        poset = box_poset(1, 2)
        ideals = brute_ideals(poset)
        assert len(ideals) == 20
        assert len(brute_ideals(poset, symmetry="rotation")) == 5

    def test_three_cube_product_count(self):
        # below-threshold box: plain product order, the classic box count
        assert len(brute_ideals(box_poset(2, 3))) == 980

    def test_recursion_equals_subset_filter(self):
        for p in (2, 3):
            for rect in (Rect(0, 2, 0, 2), Rect(0, 3, 0, 2)):
                poset = rect_poset(rect, p)
                a = {frozenset(s) for s in brute_ideals(poset)}
                b = {frozenset(s) for s in brute_ideals_by_filter(poset)}
                assert a == b

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            box_poset(4, 2)  # 125 points

    def test_deterministic_order(self):
        poset = box_poset(1, 2)
        assert brute_ideals(poset) == brute_ideals(poset)


class TestBruteExtension:
    def test_full_restriction(self):
        small, big = Rect(1, 2, 1, 2), Rect(0, 3, 0, 3)
        full_small = frozenset(rect_points(small))
        largest = brute_extension(full_small, small, big, "largest", 2)
        assert largest == frozenset(rect_points(big))
        smallest = brute_extension(full_small, small, big, "smallest", 2)
        assert full_small <= smallest < frozenset(rect_points(big))

    def test_empty_restriction_same_rect(self):
        host = Rect(0, 2, 0, 2)
        assert brute_extension(frozenset(), host, host, "largest", 2) == frozenset()
        assert brute_extension(frozenset(), host, host, "smallest", 2) == frozenset()

    def test_extension_results_are_ideals(self):
        small, big = Rect(0, 1, 0, 1), Rect(0, 3, 0, 3)
        for pts in all_rect_ideals(small, 2):
            for which in ("largest", "smallest"):
                got = brute_extension(pts, small, big, which, 2)
                walkable = {q for q in got}
                # closed within big and restricting correctly
                for u in walkable:
                    for w in rect_points(big):
                        if precedes2(w, u, 2):
                            assert w in walkable
                assert {q for q in got if small.contains(q)} == set(pts)


class TestLayerOracle:
    def test_reach_zero_offset_is_identity(self):
        params = Params(p=2, m=6, r=3)
        oracle = LayerOracle(params)
        for idx, mask in enumerate(oracle.masks):
            assert oracle.reach(idx, 0) == mask

    def test_consistent_next_empty_prefix(self):
        params = Params(p=2, m=6, r=3)
        oracle = LayerOracle(params)
        assert len(oracle.consistent_next({}, 0)) == len(oracle.ideals)


class TestBruteLayerCandidates:
    def test_empty_prefix_allows_everything(self):
        params = Params(p=2, m=6, r=3)
        got = brute_layer_candidates("backward", {}, 1, params)
        assert len(got) == len(all_rect_ideals(Rect(0, 2, 0, 2), 2))

    def test_full_prefix_forces_full(self):
        params = Params(p=2, m=6, r=3)
        u = Rect(0, params.n, 0, params.n)
        full = frozenset(rect_points(u))
        got = brute_layer_candidates("forward", {0: full, 1: full}, 2, params)
        # layers above a full layer may be anything above the transport;
        # layers BELOW a full stack must be full, so check the backward view
        got_b = brute_layer_candidates("backward", {1: full, 2: full}, 0, params)
        assert got_b == [full]
        assert full in got

    def test_symmetric_context_matches_3d_filter(self):
        params = Params(p=2, m=3, r=1)
        got = brute_layer_candidates("symmetric", {}, 0, params)
        assert {frozenset(s) for s in got} == {
            frozenset(),
            frozenset({(0, 0)}),
        }


class TestIdeal3D:
    def test_box_membership(self):
        assert ideal_3d(frozenset({(0, 0, 0)}), 1, 2)
        assert not ideal_3d(frozenset({(1, 0, 0)}), 1, 2)
        assert not ideal_3d(frozenset({(0, 0, 2)}), 1, 2)
