"""From 3D ideals to affine-invariant extended cyclic codes.

An invariant ideal I of the box prescribes a defining set: every exponent s
in 0..p^m-1 whose base-p digit sums (grouped by position mod 3) land in I.
The code is the joint kernel of the power-sum constraints sum_g a_g g^s = 0
over GF(p^m), read as a linear system over the coefficient field GF(p^r) by
expanding each constraint into coordinates over a subfield basis.  Dimension
and distinctness always come from exact row reduction; nothing is inferred
from defining-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, NotInvariant, OutOfRange
from .fields import DEFAULT_FIELD_CAP, SmallField
from .order import Params, Point3, precedes3, rotate

DEFAULT_SCAN_CAP = 10**7


def digit_class_sums(s: int, params: Params) -> tuple[int, int, int]:
    """Base-p digit sums of s grouped by digit position modulo 3."""
    p, m = params.p, params.m
    if not 0 <= s < p**m:
        raise OutOfRange(f"s = {s} outside [0, {p ** m})")
    acc = [0, 0, 0]
    for pos in range(m):
        acc[pos % 3] += s % p
        s //= p
    return (acc[0], acc[1], acc[2])


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
    for x in range(n + 1):
        for y in range(n + 1):
            for z in range(n + 1):
                w = (x, y, z)
                if w in ideal:
                    continue
                for u in ideal:
                    if precedes3(w, u, p):
                        return f"{w} below {u} but missing"
    return None


def is_invariant_ideal(ideal: frozenset[Point3], params: Params) -> bool:
    """Downward closed in the box and, for r = 1, rotation-fixed."""
    return violated_condition(ideal, params) is None


@dataclass
class CodeSpec:
    """A built code: defining data plus the expanded constraint system."""

    params: Params
    ideal: frozenset[Point3]
    defining_count: int
    fld: SmallField = field(repr=False)
    element_order: list[int] = field(repr=False)
    rref: list[list[int]] = field(repr=False)
    pivots: list[int] = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.element_order) - len(self.pivots)

    def fingerprint(self) -> tuple:
        return tuple(tuple(row) for row in self.rref)

    def summary(self) -> dict:
        """JSON-ready digest of the built code."""
        return {
            "p": self.params.p,
            "m": self.params.m,
            "r": self.params.r,
            "ideal_points": sorted(self.ideal),
            "defining_count": self.defining_count,
            "dimension": self.dimension,
        }


def _power_row(fld: SmallField, order: Sequence[int], s: int) -> list[int]:
    return [fld.power(g, s) for g in order]


def _expand_rows(
    fld: SmallField, rows: list[list[int]], r: int
) -> list[list[int]]:
    """Split GF(p^m)-valued rows into k/r coordinate rows over GF(p^r)."""
    coord_cache: dict[int, list[int]] = {}

    def coords(e: int) -> list[int]:
        got = coord_cache.get(e)
        if got is None:
            got = fld.coordinates(e, r)
            coord_cache[e] = got
        return got

    out = []
    width = fld.k // r
    for row in rows:
        cols = [coords(e) for e in row]
        for t in range(width):
            out.append([c[t] for c in cols])
    return out


def _rref(fld: SmallField, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the subfield containing all entries."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fld.inv(mat[rank][col])
        mat[rank] = [fld.mul(inv, v) for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [
                    fld.sub(a, fld.mul(f, b)) for a, b in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def _reduce_against(
    fld: SmallField, rref: list[list[int]], pivots: list[int], row: list[int]
) -> list[int]:
    out = row[:]
    for rrow, col in zip(rref, pivots):
        f = out[col]
        if f:
            out = [fld.sub(a, fld.mul(f, b)) for a, b in zip(out, rrow)]
    return out


def build_code(
    ideal: frozenset[Point3],
    params: Params,
    cap_field: int = DEFAULT_FIELD_CAP,
) -> CodeSpec:
    """Materialize the power-sum constraint system of an invariant ideal."""
    reason = violated_condition(ideal, params)
    if reason is not None:
        raise NotInvariant(reason)
    fld = SmallField(params.p, params.m, cap=cap_field)
    order = fld.elements_in_order()
    defining = preimage_list(ideal, params, cap=max(fld.order, DEFAULT_SCAN_CAP))
    rows = [_power_row(fld, order, s) for s in defining]
    expanded = _expand_rows(fld, rows, params.r)
    rref, pivots = _rref(fld, expanded) if expanded else ([], [])
    return CodeSpec(
        params=params,
        ideal=ideal,
        defining_count=preimage_count(ideal, params),
        fld=fld,
        element_order=order,
        rref=rref,
        pivots=pivots,
    )


def in_sum_zero_space(spec: CodeSpec) -> bool:
    """Whether every codeword has coordinate sum zero."""
    ones = [1] * len(spec.element_order)
    return not any(_reduce_against(spec.fld, spec.rref, spec.pivots, ones))


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
    fld = SmallField(params.p, params.m, cap=cap_field)
    order = fld.elements_in_order()
    index = {e: i for i, e in enumerate(order)}
    k = fld.k // 3
    to_coords = [fld.coordinates(e, 3) for e in range(fld.order)]
    # multiplicative generator of the degree-3 subfield
    theta = fld.exp[(fld.order - 1) // (params.p**3 - 1)]

    def perm_of(fn) -> tuple[int, ...]:
        return tuple(index[fn(e)] for e in order)

    gens = []
    for t in range(k):  # translation by the basis vector x^t, encoded p^t
        gens.append(perm_of(lambda e, b=params.p**t: fld.add(e, b)))

    def scale_first(e: int) -> int:
        cs = to_coords[e][:]
        cs[0] = fld.mul(theta, cs[0])
        return fld.from_coordinates(cs, 3)

    gens.append(perm_of(scale_first))
    if k >= 2:

        def transvect(e: int) -> int:
            cs = to_coords[e][:]
            cs[0] = fld.add(cs[0], cs[1])
            return fld.from_coordinates(cs, 3)

        def shift_basis(e: int) -> int:
            cs = to_coords[e]
            return fld.from_coordinates(cs[1:] + cs[:1], 3)

        gens.append(perm_of(transvect))
        gens.append(perm_of(shift_basis))
    return gens


def verify_invariance(spec: CodeSpec, gens: list[tuple[int, ...]]) -> bool:
    """Whether the code is stable under every generator permutation.

    The code is the orthogonal complement of the row space R of
    ``spec.rref``.  Permutation matrices are orthogonal, so a permutation
    maps the code onto itself exactly when it maps R onto itself.  The rows
    of ``rref`` are a basis of R, so it suffices that each of them, with its
    columns permuted, reduces to zero against ``rref``.
    """
    fld, rref, pivots = spec.fld, spec.rref, spec.pivots
    for perm in gens:
        for row in rref:
            moved = [row[j] for j in perm]
            if any(_reduce_against(fld, rref, pivots, moved)):
                return False
    return True
