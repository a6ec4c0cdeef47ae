"""Finite-field bridge: digit sums, defining sets, code builds, group action."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from coneideal.codes import (
    CodeSpec,
    _expand_rows,
    _power_row,
    _reduce_against,
    _rref,
    agl_generators,
    build_code,
    composition_counts,
    in_sum_zero_space,
    is_invariant_ideal,
    preimage_count,
    preimage_list,
    verify_invariance,
    violated_condition,
)
from coneideal.errors import CapExceeded, NotInvariant, OutOfRange
from coneideal.fields import SmallField, least_irreducible, shared_field
from coneideal.order import Params, precedes3, rotate
from coneideal.slicing import enumerate_all_r3, layers_to_points
from coneideal.symmetric import SymLayerSequence, assembled_points, enumerate_all_r1

from conftest import EXAMPLE_DEFINING, EXAMPLE_IDEAL
from oracle import (
    code_fingerprint,
    digit_class_sums,
    from_coordinates,
    group_closure_order,
    ideal_3d,
    kernel_basis,
    rotation_invariant_3d,
    row_encodings,
    scalar_inv,
    scalar_rref,
    verify_invariance_on_words,
    word_in_code,
)

P23 = Params(p=2, m=3, r=1)
P33 = Params(p=3, m=3, r=1)
FULL_23 = frozenset(
    (x, y, z) for x in range(2) for y in range(2) for z in range(2)
)


def r1_ideals(params):
    return [
        assembled_points(SymLayerSequence(params, walks))
        for walks in enumerate_all_r1(params, mode="stream")
    ]


def r3_ideals(params):
    return [layers_to_points(ls) for ls in enumerate_all_r3(params, mode="stream")]


def spec_of_exponents(params, defining):
    """The code cut by the power sums of any exponent list, built the way
    ``build_code`` builds the code of an ideal's defining set."""
    fld = SmallField(params.p, params.m)
    sub = fld.subfield(params.r)
    rows = [_power_row(fld, s) for s in defining]
    mat, pivots = _rref(sub, _expand_rows(fld, rows, params.r))
    return CodeSpec(
        params=params,
        ideal=frozenset(),
        defining_count=len(defining),
        sub=sub,
        coords=sub.coords.T[:, mat],
        pivots=pivots,
    )


def scalar_constraint_rows(fld, r, defining):
    """The coordinate rows over GF(p^r) of every exponent in the list, one
    field operation at a time: coordinates are read off a table of every
    sum_t c_t x^t, not computed by the coordinate map."""
    sub = fld.subfield_elements(r)
    coords = {
        from_coordinates(fld, list(cs)): list(cs)
        for cs in itertools.product(sub, repeat=fld.k // r)
    }
    rows = []
    for s in defining:
        cols = [coords[fld.power(g, s)] for g in fld.elements_in_order()]
        rows.extend([c[t] for c in cols] for t in range(fld.k // r))
    return rows


class TestDigitClassSums:
    def test_zero(self, example_params):
        assert digit_class_sums(0, example_params) == (0, 0, 0)

    def test_reference_values(self, example_params):
        assert digit_class_sums(495, example_params) == (0, 0, 3)
        assert digit_class_sums(4, example_params) == (1, 1, 0)

    def test_out_of_range(self, example_params):
        with pytest.raises(OutOfRange):
            digit_class_sums(3**6, example_params)

    def test_composition_counts_sum(self, example_params):
        counts = composition_counts(example_params)
        assert sum(counts) == 3**2  # digits strings of length m/3
        assert counts[0] == 1 and counts[-1] == 1


class TestPreimages:
    def test_single_origin(self):
        assert preimage_count(frozenset({(0, 0, 0)}), P23) == 1
        assert preimage_list(frozenset({(0, 0, 0)}), P23) == [0]

    def test_full_box(self):
        full = frozenset(
            (x, y, z)
            for x in range(P23.n + 1)
            for y in range(P23.n + 1)
            for z in range(P23.n + 1)
        )
        assert preimage_count(full, P23) == 2**3
        assert preimage_list(full, P23) == list(range(8))

    def test_empty(self):
        assert preimage_count(frozenset(), P23) == 0
        assert preimage_list(frozenset(), P23) == []

    def test_two_point_ideal(self):
        got = preimage_list(frozenset({(0, 0, 0), (1, 0, 0)}), P23)
        assert got == [0, 1]

    def test_worked_example(self, example_params):
        assert preimage_count(EXAMPLE_IDEAL, example_params) == 42
        assert preimage_list(EXAMPLE_IDEAL, example_params) == EXAMPLE_DEFINING

    def test_count_equals_list_everywhere(self):
        for params in (P23, P33):
            for ideal in r1_ideals(params):
                assert preimage_count(ideal, params) == len(
                    preimage_list(ideal, params)
                )

    def test_scan_cap(self, example_params):
        with pytest.raises(CapExceeded):
            preimage_list(EXAMPLE_IDEAL, example_params, cap=100)


class TestInvariance:
    def test_worked_example_invariant(self, example_params):
        assert is_invariant_ideal(EXAMPLE_IDEAL, example_params)

    def test_not_down_closed(self):
        assert not is_invariant_ideal(frozenset({(1, 0, 0)}), P23)
        r3 = Params(p=2, m=3, r=3)
        assert "below" in violated_condition(frozenset({(1, 0, 0)}), r3)
        assert "rotation" in violated_condition(frozenset({(1, 0, 0)}), P23)

    def test_rotation_required_for_r1(self):
        s = frozenset({(0, 0, 0), (1, 0, 0)})
        assert not is_invariant_ideal(s, P23)
        assert is_invariant_ideal(s, Params(p=2, m=3, r=3))


def _first_violation_scan(ideal, params):
    """Down-closure failure by the plain scan: the first missing box point
    in (x, y, z) order below some member, and its first such member in the
    set's iteration order."""
    n = params.n
    for w in itertools.product(range(n + 1), repeat=3):
        if w not in ideal:
            for u in ideal:
                if precedes3(w, u, params.p):
                    return f"{w} below {u} but missing"
    return None


def _orbit(u):
    return {u, rotate(u), rotate(rotate(u))}


class TestViolatedCondition:
    @pytest.mark.parametrize(
        "p,m,r",
        [(2, 3, 1), (2, 3, 3), (3, 3, 1), (3, 3, 3), (2, 6, 1), (2, 6, 3), (5, 3, 1)],
    )
    def test_matches_scan_and_oracle_on_random_sets(self, p, m, r):
        params = Params(p=p, m=m, r=r)
        n = params.n
        rng = random.Random(100 * p + 10 * m + r)
        ideals = r1_ideals(params) if r == 1 else r3_ideals(params)
        box = list(itertools.product(range(n + 1), repeat=3))
        verdicts = set()
        for _ in range(200):
            kind = rng.randrange(3)
            if kind == 0:
                density = rng.random()
                s = {u for u in box if rng.random() < density * density}
            else:
                s = set(rng.choice(ideals))
                if kind == 2:
                    s ^= {rng.choice(box)}
            if r == 1:
                s = {v for u in s for v in _orbit(u)}
            s = frozenset(s)
            reason = violated_condition(s, params)
            truth = ideal_3d(s, n, p) and (r == 3 or rotation_invariant_3d(s))
            assert (reason is None) == truth, sorted(s)
            assert reason == _first_violation_scan(s, params), sorted(s)
            verdicts.add(truth)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "ideal,params,message",
        [
            (frozenset({(1, 0, 0)}), Params(2, 3, 3), "(0, 0, 0) below (1, 0, 0)"),
            (EXAMPLE_IDEAL - {(0, 0, 0)}, Params(3, 6, 1), "(0, 0, 0) below (1, 0, 1)"),
            (
                EXAMPLE_IDEAL - _orbit((1, 0, 0)),
                Params(3, 6, 1),
                "(0, 0, 1) below (1, 0, 1)",
            ),
            (
                EXAMPLE_IDEAL - _orbit((2, 0, 0)),
                Params(3, 6, 1),
                "(0, 0, 2) below (0, 0, 3)",
            ),
            (frozenset({(3, 3, 3)}), Params(2, 9, 3), "(0, 0, 0) below (3, 3, 3)"),
            (
                frozenset({(0, 0, 0), (0, 0, 1), (0, 0, 2), (2, 0, 0)}),
                Params(2, 9, 3),
                "(0, 1, 0) below (2, 0, 0)",
            ),
        ],
    )
    def test_pinned_messages(self, ideal, params, message):
        assert violated_condition(ideal, params) == f"{message} but missing"

    def test_blocks_keep_scan_order(self):
        # 265 members at n = 9: blocks of 247 missing points, and the three
        # removals below are first found in the first, second and third block
        params = Params(p=2, m=27, r=3)
        box = list(itertools.product(range(params.n + 1), repeat=3))
        gens = [(9, 3, 0), (2, 9, 1), (4, 4, 4), (0, 1, 9)]
        ideal = frozenset(w for w in box if any(precedes3(w, g, 2) for g in gens))
        assert len(ideal) == 265 and violated_condition(ideal, params) is None
        for u in [(2, 7, 1), (5, 2, 1), (8, 1, 0)]:
            s = ideal - {u}
            reason = violated_condition(s, params)
            assert reason.startswith(f"{u} below")
            assert reason == _first_violation_scan(s, params)

    def test_empty_set_is_an_ideal(self):
        assert violated_condition(frozenset(), Params(2, 9, 3)) is None


class TestSmallField:
    def test_least_irreducible_known(self):
        # x^3 + x + 1 over GF(2); x^2 + 1 over GF(3)
        assert least_irreducible(2, 3) == (1, 1, 0)
        assert least_irreducible(3, 2) == (1, 0)

    def test_modulus_table_pinned(self):
        # byte-for-byte reproducibility of every field-backed artifact
        expected = {
            2: [0, 3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9],
            3: [0, 1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11],
            5: [0, 2, 6, 2, 21, 7, 6, 2, 38, 33, 11, 9],
            7: [0, 1, 2, 8, 10, 2, 43],
        }
        for p, encodings in expected.items():
            for k, enc in enumerate(encodings, start=1):
                coeffs = least_irreducible(p, k)
                assert sum(c * p**i for i, c in enumerate(coeffs)) == enc, (p, k)

        # p = 7, k <= 3 independently: every monic of degree 1 is
        # irreducible, one of degree 2 or 3 exactly when it has no root
        def irreducible(enc, k):
            coeffs = [enc // 7**i % 7 for i in range(k)] + [1]
            return k == 1 or all(
                sum(c * x**i for i, c in enumerate(coeffs)) % 7 for x in range(7)
            )

        least = [next(e for e in range(7**k) if irreducible(e, k)) for k in (1, 2, 3)]
        assert least == expected[7][:3]

    def test_degree_one_field(self):
        fld = SmallField(3, 1)
        assert fld.elements_in_order() == [0, 1, 2]
        assert fld.add(1, 2) == 0 and fld.mul(2, 2) == 1

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 6), (3, 3), (5, 3)])
    def test_field_axioms_spotcheck(self, p, k):
        fld = SmallField(p, k)
        q = fld.order
        els = list(range(q)) if q <= 64 else list(range(40))
        for a in els[:12]:
            assert fld.add(a, 0) == a
            assert fld.mul(a, 1) == a
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, scalar_inv(fld, a)) == 1
        for a in els[:8]:
            for b in els[:8]:
                assert fld.add(a, b) == fld.add(b, a)
                assert fld.mul(a, b) == fld.mul(b, a)

    def test_zero_power_convention(self):
        fld = SmallField(2, 3)
        assert fld.power(0, 0) == 1
        assert fld.power(0, 5) == 0

    def test_exp_log_consistency(self):
        fld = SmallField(3, 3)
        for j, v in enumerate(fld.exp):
            assert fld.log[v] == j

    @pytest.mark.parametrize(
        "p,k,r", [(2, 6, 3), (3, 6, 3), (2, 9, 3), (5, 3, 1), (3, 3, 3)]
    )
    def test_subfield_and_coordinates(self, p, k, r):
        fld = SmallField(p, k)
        sub = fld.subfield_elements(r)
        assert len(sub) == p**r
        for e in range(fld.order):
            cs = fld.coordinates(e, r)
            assert len(cs) == k // r
            assert all(c in sub for c in cs)
            assert from_coordinates(fld, cs) == e
        # the whole-array map is one-to-one on the field
        fp = fld.fp_coordinates(fld.elements_in_order(), r)
        assert fp.shape == (fld.order, k)
        assert len({tuple(row) for row in fp.tolist()}) == fld.order
        # in_sum_zero_space reads the all-ones row as index 1
        assert fld.subfield(r).elements[1] == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            shared_field(2, 25)

    def test_subfield_table_cap(self):
        sub = SmallField(13, 3).subfield(3)
        assert len(sub.elements) == 13**3 and sub.elements[1] == 1
        with pytest.raises(CapExceeded, match="^GF\\(17\\^3\\) tables exceed"):
            SmallField(17, 3).subfield(3)


class TestBuildCode:
    def test_empty_ideal_full_space(self):
        spec = build_code(frozenset(), P23)
        assert spec.dimension == 8
        assert not in_sum_zero_space(spec)

    def test_origin_only_sum_zero(self):
        spec = build_code(frozenset({(0, 0, 0)}), P23)
        assert spec.dimension == 7
        assert in_sum_zero_space(spec)

    def test_full_ideal_zero_code(self):
        spec = build_code(FULL_23, P23)
        assert spec.dimension == 0

    def test_rejects_non_ideal(self):
        with pytest.raises(NotInvariant):
            build_code(frozenset({(1, 0, 0)}), P23)

    @pytest.mark.parametrize(
        "build",
        [
            lambda params: build_code(frozenset(), params, cap_field=100),
            lambda params: agl_generators(params, cap_field=100),
        ],
        ids=["build_code", "agl_generators"],
    )
    def test_field_cap(self, build):
        with pytest.raises(CapExceeded, match="^field size 729 exceeds cap 100$"):
            build(Params(p=3, m=6, r=1))

    def test_monotone_dimensions(self):
        ideals = sorted(r1_ideals(P23), key=len)
        specs = [build_code(i, P23) for i in ideals]
        for a in range(len(ideals)):
            for b in range(len(ideals)):
                if ideals[a] < ideals[b]:
                    assert specs[a].dimension > specs[b].dimension

    def test_pairwise_distinct(self):
        for params in (P23, P33):
            fps = {code_fingerprint(build_code(i, params)) for i in r1_ideals(params)}
            assert len(fps) == len(r1_ideals(params))

    def test_kernel_words_satisfy_constraints(self):
        spec = build_code(frozenset({(0, 0, 0)}), P33)
        basis = kernel_basis(spec)
        assert len(basis) == spec.dimension
        for w in basis:
            assert word_in_code(spec, w)


class TestCodeCoordinates:
    @pytest.mark.parametrize("p,m,r", [(2, 6, 1), (2, 6, 3), (3, 3, 3), (5, 3, 1)])
    def test_coords_read_off_rref(self, p, m, r):
        # the encodings of the reduced rows map back, by value, to the
        # coordinates they were read off
        params = Params(p, m, r)
        ideals = r1_ideals(params) if r == 1 else r3_ideals(params)
        sub = SmallField(p, m).subfield(r)
        assert sub.elements[1] == 1
        for ideal in ideals:
            spec = build_code(ideal, params)
            encodings = row_encodings(spec)
            index = np.searchsorted(sub.elements, encodings)
            assert np.array_equal(sub.elements[index], encodings)
            assert spec.coords.shape == (r, len(spec.pivots), p**m)
            assert np.array_equal(spec.coords, sub.coords.T[:, index]), sorted(ideal)


class TestScalarReferee:
    @pytest.mark.parametrize(
        "p,m,r,sample",
        [
            (2, 3, 1, None),
            (3, 3, 1, None),
            (2, 3, 3, None),
            (3, 3, 3, None),
            (2, 6, 1, 20),
            (2, 6, 3, 20),
            (5, 3, 1, 20),
        ],
    )
    def test_rref_matches_scalar_rref(self, p, m, r, sample):
        # orbit representatives and table elimination against the whole
        # defining list reduced one field operation at a time
        params = Params(p, m, r)
        ideals = r1_ideals(params) if params.r == 1 else r3_ideals(params)
        if sample is not None:
            ideals = random.Random(6).sample(ideals, sample)
        fld = SmallField(params.p, params.m)
        for ideal in ideals:
            spec = build_code(ideal, params)
            rows = scalar_constraint_rows(fld, params.r, preimage_list(ideal, params))
            ref, pivots = scalar_rref(fld, rows)
            assert row_encodings(spec).tolist() == ref, sorted(ideal)
            assert spec.pivots == pivots
            assert spec.dimension == params.p**params.m - len(pivots)

    @pytest.mark.parametrize("p,m,r", [(2, 9, 1), (7, 3, 3), (31, 3, 1)])
    def test_reduce_against_matches_integer_products(self, p, m, r):
        # the one float64 product against the r^2 integer products it
        # replaced, on random F_p-coordinates
        sub = SmallField(p, m).subfield(r)
        assert sub.elements[1] == 1
        q = p**m
        rng = np.random.default_rng(p)
        rref = rng.integers(0, p, size=(r, 48, q))
        moved = rng.integers(0, p, size=(r, 6, q))
        pivots = sorted(rng.choice(q, 48, replace=False).tolist())
        prods = np.array([[a @ b for b in rref] for a in moved[:, :, pivots]])
        want = (moved - np.einsum("abc,abij->cij", sub.structure, prods)) % p
        got = _reduce_against(sub, rref, pivots, moved)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestAffineGroup:
    def test_small_group_orders(self):
        assert group_closure_order(agl_generators(P23)) == 56  # 8 * 7
        assert group_closure_order(agl_generators(P33)) == 702  # 27 * 26

    def test_identity_generated(self):
        for p, m, r in ((2, 3, 1), (3, 3, 1), (2, 6, 1), (3, 6, 1)):
            identity = tuple(range(p**m))
            for g in agl_generators(Params(p, m, r)):
                assert sorted(g) == list(identity)
                assert g != identity

    @pytest.mark.parametrize(
        "inst,sha",
        [
            ((2, 3, 1),
             "8ad2f6c027b8b753664c2f5a2e40051abbe1db7f5de275507c17b1b7ea88d8df"),
            ((3, 3, 1),
             "a85001220ee03a87fbd3bf6860010a066d025aa56063527d5b7a4c449b7e309c"),
            ((2, 6, 1),
             "fab20a93030ddeee9671716aebfcc98a8f2ce25822860eef8418014b2d898b2b"),
            ((2, 6, 3),
             "fab20a93030ddeee9671716aebfcc98a8f2ce25822860eef8418014b2d898b2b"),
            # the one case with three blocks: a basis shift rolled the wrong
            # way fails only here
            ((2, 9, 1),
             "ee1ec1840215c2966c6a053e5c53f13c8865d9798e34a7f329ef889d7473f25e"),
            ((5, 3, 1),
             "d5eaaf4e2a95b2c2bbed619b663223dc8c96d456f5c66e9b55b58c97755fab1b"),
            ((7, 3, 1),
             "e9a48ae0cf129cd4da2ec1fd4696cc939d2ea403917f1e32d797b36b726ae263"),
            # GF(17^3) subfield tables exceed TABLE_CAP: generators need none
            ((17, 3, 1),
             "4e0d85b5266e0ea95021cb54413ca210ad46b83e732a24504ab936eb5815da23"),
        ],
    )
    def test_generators_pinned(self, inst, sha):
        gens = agl_generators(Params(*inst))
        assert hashlib.sha256(repr(gens).encode()).hexdigest() == sha

    def test_all_small_codes_invariant(self):
        for params in (P23, P33):
            gens = agl_generators(params)
            for ideal in r1_ideals(params):
                spec = build_code(ideal, params)
                assert verify_invariance(spec, gens)
                assert verify_invariance_on_words(spec, gens)
                assert in_sum_zero_space(spec) == (len(ideal) > 0)

    def test_non_ideal_defining_set_fails(self):
        # cyclotomic closure of the exponent 3 alone over GF(8): its power
        # sums do not cut an affine-invariant code
        spec = spec_of_exponents(P23, [3, 6, 5])  # the 2-cyclotomic coset of 3 mod 7
        assert not verify_invariance(spec, agl_generators(P23))

    def test_matches_codeword_check(self):
        # exponent sets near the invariant ones: the defining set of a random
        # ideal with up to two exponents toggled.  Ideals with at most q/4
        # exponents keep the row reductions cheap.
        rng = random.Random(4)
        for inst in ((2, 3, 1), (3, 3, 1), (2, 6, 1), (2, 6, 3)):
            params = Params(*inst)
            q = params.p**params.m
            gens = agl_generators(params)
            ideals = r1_ideals(params) if params.r == 1 else r3_ideals(params)
            bases = [
                set(preimage_list(i, params))
                for i in ideals
                if preimage_count(i, params) <= q // 4
            ]
            outcomes = set()
            for _ in range(25):
                toggled = set(rng.sample(range(q), rng.randint(0, 2)))
                exps = sorted(rng.choice(bases) ^ toggled)
                spec = spec_of_exponents(params, exps)
                got = verify_invariance(spec, gens)
                assert got == verify_invariance_on_words(spec, gens), (inst, exps)
                outcomes.add(got)
            assert outcomes == {True, False}, inst

    def test_mutant_ideal_detected(self, example_params):
        broken = frozenset(EXAMPLE_IDEAL - {(3, 0, 0)})
        assert not is_invariant_ideal(broken, example_params)
        broken2 = frozenset(EXAMPLE_IDEAL - {(0, 0, 0)})
        assert not is_invariant_ideal(broken2, example_params)

    def test_degree_three_coefficient_field(self):
        # r = 3: codes are modules over the degree-3 subfield; each power-sum
        # constraint expands to m/3 coordinate rows over that subfield
        params = Params(p=2, m=6, r=3)
        gens = agl_generators(params)
        spec_empty = build_code(frozenset(), params)
        assert spec_empty.dimension == 64
        spec_origin = build_code(frozenset({(0, 0, 0)}), params)
        assert spec_origin.dimension == 63
        assert in_sum_zero_space(spec_origin)
        ideals = sorted(r3_ideals(params), key=len)
        sample = ideals[:5] + ideals[-5:] + ideals[200:205]
        fps = set()
        for ideal in sample:
            spec = build_code(ideal, params)
            fps.add(code_fingerprint(spec))
            assert verify_invariance(spec, gens)
            assert in_sum_zero_space(spec) == (len(ideal) > 0)
        assert len(fps) == len(sample)

    def test_robust_to_basis_choice(self):
        # the coordinate basis used for the module structure must not matter:
        # compare the canonical generators with generators built from a
        # conjugated coordinate map at p=2, m=6
        params = Params(p=2, m=6, r=1)
        fld = SmallField(2, 6)
        gens = agl_generators(params)
        order = fld.elements_in_order()
        index = {e: i for i, e in enumerate(order)}
        # conjugate the whole generator set by multiplication with a unit:
        # x -> c*x maps one module basis onto another
        c = fld.exp[3]
        conj = tuple(index[fld.mul(c, order[i])] for i in range(len(order)))
        conj_inv = [0] * len(order)
        for i, v in enumerate(conj):
            conj_inv[v] = i
        alt_gens = [
            tuple(conj[g[conj_inv[i]]] for i in range(len(order)))
            for g in gens
        ]
        for ideal in r1_ideals(params)[:6]:
            spec = build_code(ideal, params)
            assert verify_invariance(spec, gens)
            assert verify_invariance(spec, alt_gens)
