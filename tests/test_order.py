"""Cone-order kernel: predicates, cross sections, rotation symmetry."""

import itertools
from fractions import Fraction

import pytest

from coneideal.errors import OutOfRange
from coneideal.order import Params, is_prime, precedes3, rotate
from oracle import (
    cone_slice_anchor,
    in_slice,
    precedes2,
    rational_shift_covers,
    section_precedes,
)


def box3(lo, hi):
    rng = range(lo, hi + 1)
    return list(itertools.product(rng, rng, rng))


class TestParams:
    def test_derived_n(self):
        assert Params(p=3, m=6, r=1).n == 4
        assert Params(p=2, m=3).n == 1
        assert Params(p=5, m=9, r=3).n == 12

    @pytest.mark.parametrize(
        "kw",
        [
            dict(p=4, m=3, r=3),
            dict(p=3, m=4, r=3),
            dict(p=3, m=3, r=2),
            dict(p=3, m=0, r=1),
        ],
    )
    def test_rejects_bad_params(self, kw):
        with pytest.raises(OutOfRange):
            Params(**kw)

    def test_is_prime(self):
        assert [x for x in range(60) if is_prime(x)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
        ]


class TestPrecedes3:
    def test_reflexive_zero(self):
        assert precedes3((0, 0, 0), (0, 0, 0), 3)

    def test_all_ones_above_origin(self):
        # (-1,-1,-1) maps to (-13,-13,-13) under the p=3 circulant
        assert precedes3((0, 0, 0), (1, 1, 1), 3)

    def test_mixed_direction_fails(self):
        # (1,0,-1) maps to (-8, 6, 2); the positive coordinates reject it
        assert not precedes3((1, 0, 0), (0, 0, 1), 3)

    def test_rotation_preserves_order(self):
        for p in (2, 3):
            for u in box3(-2, 2):
                for v in box3(-1, 1):
                    assert precedes3(u, v, p) == precedes3(rotate(u), rotate(v), p)

    def test_partial_order_axioms_on_box(self):
        for p in (2, 3):
            pts = box3(0, 3)
            for u in pts:
                assert precedes3(u, u, p)
            rel = {(u, v) for u in pts for v in pts if precedes3(u, v, p)}
            for (u, v) in rel:
                if u != v:
                    assert (v, u) not in rel
            for (u, v) in rel:
                for w in pts:
                    if (v, w) in rel:
                        assert (u, w) in rel

    def test_product_order_when_box_small(self):
        # box side below p: the order degenerates to componentwise comparison
        for p, n in ((3, 2), (5, 3)):
            for u in box3(0, n):
                for v in box3(0, n):
                    expected = all(a <= b for a, b in zip(u, v))
                    assert precedes3(u, v, p) == expected


class TestPrecedes2:
    def test_examples(self):
        assert precedes2((0, 1), (2, 0), 2)
        assert precedes2((3, 3), (3, 3), 5)
        assert not precedes2((1, 0), (0, 0), 2)

    def test_matches_3d_restriction(self):
        for p in (2, 3):
            for ux in range(-3, 4):
                for uy in range(-3, 4):
                    assert precedes2((ux, uy), (0, 0), p) == precedes3(
                        (ux, uy, 0), (0, 0, 0), p
                    )


class TestCrossSections:
    def test_anchor_values(self):
        assert cone_slice_anchor(0, 3) == (0, 0)
        assert cone_slice_anchor(2, 3) == (0, -6)
        assert cone_slice_anchor(-3, 3) == (Fraction(1), Fraction(0))
        assert cone_slice_anchor(-1, 2) == (Fraction(1, 2), Fraction(0))

    def test_section_matches_3d(self):
        for p in (2, 3, 5):
            for u in box3(-3, 3):
                for v in [(0, 0, 0), (1, 2, 0), (-1, 0, 2)]:
                    assert precedes3(u, v, p) == section_precedes(u, v, p)

    def test_rotated_sections_agree(self):
        for p in (2, 3):
            for u in box3(-2, 2):
                for v in box3(-1, 1):
                    base = precedes3(u, v, p)
                    assert base == in_slice(
                        (u[1] - v[1], u[2] - v[2]), u[0] - v[0], p
                    )
                    assert base == in_slice(
                        (u[2] - v[2], u[0] - v[0]), u[1] - v[1], p
                    )


class TestRationalShiftCovers:
    @pytest.mark.parametrize(
        "c,p,expected",
        [
            (0, 3, ((0, 0), (1, -9))),
            (7, 3, ((2, 0), (3, -6))),
            (5, 2, ((2, 0), (3, -2))),
            (-4, 3, ((-2, 0), (-1, -3))),
        ],
    )
    def test_values(self, c, p, expected):
        assert rational_shift_covers(c, p) == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lattice_point_equality(self, p):
        # scan a window: integer points of the rational translate equal the
        # integer points under the two integral translates
        for c in range(-2 * p, 2 * p + 1):
            s1, s2 = rational_shift_covers(c, p)
            for x in range(-2 * p, 3 * p):
                for y in range(-2 * p * p, p + 1):
                    lhs = p * x - c + p * p * y <= 0 and p * p * x - p * c + y <= 0
                    rhs = precedes2((x, y), s1, p) or precedes2((x, y), s2, p)
                    assert lhs == rhs, (c, p, x, y)


class TestRotate:
    def test_examples(self):
        assert rotate((1, 2, 3)) == (2, 3, 1)
        assert rotate((0, 0, 0)) == (0, 0, 0)
        assert rotate(rotate(rotate((5, 7, 9)))) == (5, 7, 9)
