"""Odds and ends: generic circulants, verified bounds, code summaries."""

import json

from coneideal.codes import build_code
from coneideal.order import Params, precedes3
from coneideal.slicing import LayerSequence, backward_bounds, square_host
from coneideal.walks import empty_walk, full_walk
from oracle import (
    code_summary,
    is_consistent_backward,
    is_consistent_forward,
    precedes_generic,
)


class TestGenericCirculant:
    def test_matches_specialized_for_e3(self):
        for p in (2, 3):
            for u in [(0, 0, 0), (1, 2, 0), (-1, 3, 2), (2, 2, 2)]:
                for v in [(0, 0, 0), (1, 1, 1), (0, 2, 1)]:
                    assert precedes_generic(u, v, p) == precedes3(u, v, p)

    def test_e2_behaves_like_planar_cone(self):
        # the two-row circulant [[1, p], [p, 1]] gives x + p*y <= 0 and
        # p*x + y <= 0 for the difference
        p = 3
        assert precedes_generic((0, 0), (1, 0), p)
        assert precedes_generic((-p, 1), (0, 0), p)
        assert not precedes_generic((-p + 1, 1), (0, 0), p)


class TestVerifiedBounds:
    """Stacks under the bounds, checked layer by layer by the referees."""

    def test_backward_rejects_inconsistent_suffix(self):
        params = Params(p=3, m=12, r=3)
        u = square_host(params.n)
        walks = {i: empty_walk(u, 3) for i in range(1, 9)}
        walks[8] = full_walk(u, 3)  # full on top of empty: not an ideal
        seq = LayerSequence(params, walks)
        assert not all(
            is_consistent_backward(i, seq.walks[i], seq) for i in range(1, params.n)
        )

    def test_forward_rejects_inconsistent_prefix(self):
        params = Params(p=3, m=12, r=3)
        u = square_host(params.n)
        walks = {0: empty_walk(u, 3), 1: full_walk(u, 3)}
        seq = LayerSequence(params, walks)
        assert not is_consistent_forward(1, seq.walks[1], seq)

    def test_verify_accepts_consistent_input(self):
        params = Params(p=3, m=12, r=3)
        u = square_host(params.n)
        walks = {i: full_walk(u, 3) for i in range(1, 9)}
        seq = LayerSequence(params, walks)
        assert all(
            is_consistent_backward(i, seq.walks[i], seq) for i in range(1, params.n)
        )
        lo, hi = backward_bounds(0, seq, params)
        assert lo.is_full and hi.is_full


class TestCodeSummary:
    def test_summary_shape(self):
        params = Params(p=2, m=3, r=1)
        spec = build_code(frozenset({(0, 0, 0)}), params)
        digest = code_summary(spec)
        assert digest == {
            "p": 2,
            "m": 3,
            "r": 1,
            "ideal_points": [(0, 0, 0)],
            "defining_count": 1,
            "dimension": 7,
        }
        # JSON-serializable once tuples become lists
        json.dumps({**digest, "ideal_points": [list(q) for q in digest["ideal_points"]]})
