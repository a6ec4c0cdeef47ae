"""From 3D ideals to affine-invariant extended cyclic codes.

An invariant ideal I of the box prescribes a defining set: every exponent s
in 0..p^m-1 whose base-p digit sums (grouped by position mod 3) land in I.
The code is the joint kernel of the power-sum constraints sum_g a_g g^s = 0
over GF(p^m), read as a linear system over the coefficient field GF(p^r) by
expanding each constraint into coordinates over a subfield basis.  Dimension
and distinctness always come from exact row reduction; nothing is inferred
from defining-set sizes.

For a word over GF(p^r) the constraint of s p^r is the p^r-th power of the
constraint of s, so the coordinate rows of s span those of its whole orbit
{s, s p^r, s p^{2r}, ...} (the trace description of subfield subcodes:
Delsarte, IEEE Trans. IT 21, 1975).  The defining set of an invariant ideal
is a union of such orbits, and only the least exponent of each is expanded.
Rows are numpy arrays of subfield indices, reduced with the tables of
:class:`~coneideal.fields.Subfield`; invariance and the sum-zero property
are each one matrix identity over GF(p^r) (:func:`_reduce_against`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, NotInvariant
from .fields import DEFAULT_FIELD_CAP, SmallField, Subfield, shared_field
from .order import Params, Point3, rotate

DEFAULT_SCAN_CAP = 10**7


def composition_counts(params: Params) -> list[int]:
    """counts[t] = number of (m/3)-tuples of digits in [0, p-1] summing to t."""
    p, length = params.p, params.m // 3
    counts = [1]
    for _ in range(length):
        nxt = [0] * (len(counts) + p - 1)
        for t, c in enumerate(counts):
            for dgt in range(p):
                nxt[t + dgt] += c
        counts = nxt
    return counts


def preimage_count(ideal: frozenset[Point3], params: Params) -> int:
    """Number of exponents whose digit-class sums land in the ideal."""
    counts = composition_counts(params)
    top = len(counts) - 1
    total = 0
    for (a, b, c) in ideal:
        if 0 <= a <= top and 0 <= b <= top and 0 <= c <= top:
            total += counts[a] * counts[b] * counts[c]
    return total


def preimage_list(
    ideal: frozenset[Point3], params: Params, cap: int = DEFAULT_SCAN_CAP
) -> list[int]:
    """Ascending exponent list; refuses scans beyond ``cap`` values."""
    p, m, n = params.p, params.m, params.n
    q = p**m
    if q > cap:
        raise CapExceeded(f"scan of {q} exponents exceeds cap {cap}")
    member = np.zeros((n + 1, n + 1, n + 1), dtype=bool)
    for (a, b, c) in ideal:
        member[a, b, c] = True
    values = np.arange(q, dtype=np.int64)
    rem = values.copy()
    sums = np.zeros((3, q), dtype=np.int64)
    for pos in range(m):
        sums[pos % 3] += rem % p
        rem //= p
    mask = member[sums[0], sums[1], sums[2]]
    return [int(v) for v in values[mask]]


def violated_condition(ideal: frozenset[Point3], params: Params) -> Optional[str]:
    """Why a set is not an invariant ideal (downward closed in the box and,
    for r = 1, rotation-fixed), or None when it is one."""
    n, p = params.n, params.p
    for u in ideal:
        if not all(0 <= c <= n for c in u):
            return f"point {u} outside the box"
    if params.r == 1:
        for u in ideal:
            if rotate(u) not in ideal:
                return f"rotation image of {u} missing"
    # w precedes u when w . a <= u . a for each column a of ``cone``.  The
    # columns add up to (1 + p + p^2)(1, 1, 1), so then sum(w) <= sum(u): only
    # missing points with sums up to the largest member sum meet the members,
    # in scan order, in blocks of about 2^16 pairs
    us = list(ideal)
    pts = np.array(us, dtype=int).reshape(-1, 3)
    cone = np.array([[1, p, p * p], [p * p, 1, p], [p, p * p, 1]]).T
    u_dots = pts @ cone
    top = max(map(sum, us), default=-1)
    member = np.zeros((min(n, top) + 1,) * 3, dtype=bool)
    member[tuple(pts.T)] = True
    missing = np.argwhere(~member)
    missing = missing[missing.sum(axis=1) <= top]
    rows = 2**16 // (len(us) + 1) + 1
    for start in range(0, len(missing), rows):
        ws = missing[start : start + rows]
        below = ((ws @ cone)[:, None] <= u_dots).all(axis=2)
        hits = below.any(axis=1)
        if hits.any():
            k = hits.argmax()
            return f"{tuple(map(int, ws[k]))} below {us[below[k].argmax()]} but missing"
    return None


def is_invariant_ideal(ideal: frozenset[Point3], params: Params) -> bool:
    """Downward closed in the box and, for r = 1, rotation-fixed."""
    return violated_condition(ideal, params) is None


@dataclass
class CodeSpec:
    """A built code: defining data plus the reduced constraint system over
    the coefficient field ``sub``, whose rows are held as ``coords``, their
    F_p-coordinates over the subfield basis (r x rank x p^m)."""

    params: Params
    ideal: frozenset[Point3]
    defining_count: int
    sub: Subfield = field(repr=False)
    coords: np.ndarray = field(repr=False)
    pivots: list[int] = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.coords.shape[2] - len(self.pivots)


def _orbit_leaders(defining: Sequence[int], params: Params) -> np.ndarray:
    """The least exponent of each orbit {s, s p^r, s p^{2r}, ...} of an
    orbit-closed exponent list.  Multiplying by p^r mod p^m - 1 rotates the
    m base-p digits by r places, which also keeps 0 and p^m - 1 apart."""
    p, m, r = params.p, params.m, params.r
    exps = np.array(defining, dtype=np.int64)
    low = p ** (m - r)
    keep = np.ones(len(exps), dtype=bool)
    turned = exps
    for _ in range(m // r - 1):
        turned = turned % low * p**r + turned // low
        keep &= exps <= turned
    return exps[keep]


def _power_row(fld: SmallField, s: int) -> np.ndarray:
    """g^s for g in the canonical element order, with 0^0 = 1."""
    group = fld.order - 1
    powers = fld.exp_array[np.arange(group, dtype=np.int64) * s % group]
    return np.concatenate(([int(s == 0)], powers))


def _expand_rows(fld: SmallField, rows: Sequence[np.ndarray], r: int) -> np.ndarray:
    """Split GF(p^m)-valued rows into k/r coordinate rows over GF(p^r), as
    subfield indices, the k/r rows of each input row consecutive."""
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), fld.order)
    coords = fld.fp_coordinates(mat, r).reshape(*mat.shape, fld.k // r, r)
    sub_rows = fld.subfield(r).from_coords[coords @ fld.p ** np.arange(r)]
    return sub_rows.transpose(0, 2, 1).reshape(-1, fld.order)


def _rref(sub: Subfield, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p^r) of rows of subfield indices,
    and the pivot columns; ``mat`` is reduced in place.

    Elimination runs through the add/mul tables.  A pivot updates only the
    rows nonzero in its column, and only from that column on: the pivot row
    is zero before it.
    """
    pivots: list[int] = []
    for col in range(mat.shape[1]):
        rank = len(pivots)
        if rank == len(mat):
            break
        below = np.flatnonzero(mat[rank:, col])
        if not below.size:
            continue
        mat[[rank, rank + below[0]]] = mat[[rank + below[0], rank]]
        prow = sub.mul[sub.inv[mat[rank, col]], mat[rank, col:]]
        mat[rank, col:] = prow
        hit = np.flatnonzero(mat[:, col])
        hit = hit[hit != rank]
        factor = sub.neg[mat[hit, col]]
        mat[hit, col:] = sub.add[mat[hit, col:], sub.mul[factor[:, None], prow]]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _reduce_against(
    sub: Subfield, rref: np.ndarray, pivots: list[int], moved: np.ndarray
) -> np.ndarray:
    """The residue moved - moved[:, pivots] . rref over GF(p^r), all three on
    F_p-coordinates as in ``CodeSpec.coords``.  It is zero exactly when every
    row of ``moved`` lies in the row space of the echelon form ``rref``.
    The product is r^2 integer matrix products mod p, combined by the
    structure constants of the coordinate basis.

    The products run as one broadcast float64 product, which is exact: each
    entry is a sum of at most rank <= q nonnegative terms below p^2 <= q^(2/3),
    so every partial sum stays below q^(5/3) < 2^53 for any q < 2^31."""
    lead = moved[:, None, :, pivots].astype(np.float64)
    prods = (lead @ rref[None].astype(np.float64)).astype(np.int64)
    return (moved - np.einsum("abc,abij->cij", sub.structure, prods)) % sub.p


def build_code(
    ideal: frozenset[Point3],
    params: Params,
    cap_field: int = DEFAULT_FIELD_CAP,
) -> CodeSpec:
    """Materialize the power-sum constraint system of an invariant ideal."""
    reason = violated_condition(ideal, params)
    if reason is not None:
        raise NotInvariant(reason)
    fld = shared_field(params.p, params.m, cap=cap_field)
    defining = preimage_list(ideal, params, cap=fld.order)
    rows = [_power_row(fld, s) for s in _orbit_leaders(defining, params)]
    sub = fld.subfield(params.r)
    mat, pivots = _rref(sub, _expand_rows(fld, rows, params.r))
    return CodeSpec(
        params=params,
        ideal=ideal,
        defining_count=preimage_count(ideal, params),
        sub=sub,
        coords=sub.coords.T[:, mat],
        pivots=pivots,
    )


def in_sum_zero_space(spec: CodeSpec) -> bool:
    """Whether every codeword has coordinate sum zero: the all-ones row lies
    in the row space of the constraints.  The element 1 is index 1 of
    every subfield."""
    ones = spec.sub.coords.T[:, np.ones((1, spec.coords.shape[2]), dtype=np.int64)]
    return not _reduce_against(spec.sub, spec.coords, spec.pivots, ones).any()


# -- the affine group action --


def agl_generators(
    params: Params, cap_field: int = DEFAULT_FIELD_CAP
) -> list[tuple[int, ...]]:
    """Permutations of the canonical element order generating the affine
    group of the field viewed as a module over its degree-3 subfield.

    Generators: one translation per module basis vector, the scalar action
    of a degree-3-subfield generator on the first coordinate, and (when the
    module rank exceeds one) a transvection and a cyclic basis shift.
    """
    fld = shared_field(params.p, params.m, cap=cap_field)
    # F_p-coordinates over {sigma_j x^t}, column 3t + j for sigma_j x^t, where
    # sigma_j = theta^j and theta = exp[step] generates the degree-3 subfield
    cs = fld.fp_coordinates(fld.elements_in_order(), 3)
    weights = fld.p ** np.arange(fld.k)
    position = np.empty(fld.order, dtype=np.int64)
    position[cs @ weights] = np.arange(fld.order)
    step = (fld.order - 1) // (fld.p**3 - 1)
    eye = np.eye(fld.k, dtype=np.int64)
    scale = eye.copy()  # rows 0..2: the coordinates of theta * sigma_j
    scale[:3, :3] = fld.fp_coordinates(fld.exp[step : 4 * step : step], 3)[:, :3]
    # translation by the basis vector x^t adds 1 to coordinate 3t
    moved = [cs + eye[3 * t] for t in range(fld.k // 3)] + [cs @ scale]
    if fld.k > 3:
        sheared = cs.copy()
        sheared[:, :3] += cs[:, 3:6]
        moved += [sheared, np.roll(cs, -3, axis=1)]
    return [tuple(position[c % fld.p @ weights].tolist()) for c in moved]


def verify_invariance(spec: CodeSpec, gens: list[tuple[int, ...]]) -> bool:
    """Whether the code is stable under every generator permutation.

    The code is the orthogonal complement of the row space R of the
    echelon form E held in ``spec.coords``.  Permutation matrices are
    orthogonal, so a permutation maps the code onto itself exactly when it
    maps R onto itself.  The rows of E are a basis of R, so it suffices that
    X, E with its columns permuted, lies in R: one matrix identity per
    generator, X == X[:, pivots] . E over GF(p^r) (:func:`_reduce_against`).
    """
    return not any(
        _reduce_against(spec.sub, spec.coords, spec.pivots, spec.coords[:, :, g]).any()
        for g in gens
    )
