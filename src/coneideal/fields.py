"""Small finite fields with log tables and subfield coordinate maps.

Elements of GF(p^k) are integers 0..p^k-1 encoding coefficient vectors in
base p over the power basis of x modulo a fixed monic irreducible.  The
modulus is the lexicographically least irreducible (smallest integer
encoding of its non-leading coefficients), so all tables are reproducible
byte for byte.  Multiplication goes through exp/log tables of the least
primitive element.  Whole-row arithmetic in a subfield GF(p^r) goes through
the numpy tables of :class:`Subfield`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import CapExceeded, OutOfRange

DEFAULT_FIELD_CAP = 1 << 20
TABLE_CAP = 1 << 24  # entries of one Q x Q subfield table (128 MB of int64)


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, mod, p)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial mod over GF(p)."""
    a = _poly_trim(a[:])
    while len(a) >= len(mod):
        shift, coef = len(a) - len(mod), a[-1]
        for i, cm in enumerate(mod):
            a[shift + i] = (a[shift + i] - coef * cm) % p
        _poly_trim(a)
    return a


def _is_irreducible(mod: list[int], p: int) -> bool:
    """No monic factor of degree 1..k/2 divides the monic mod of degree k."""
    k = len(mod) - 1
    return all(
        _poly_mod(mod, _digits(enc, p, d) + [1], p)
        for d in range(1, k // 2 + 1)
        for enc in range(p**d)
    )


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0..c_{k-1}) of the least monic irreducible
    of degree k over GF(p), ordered by the integer sum(c_i p^i).

    Chosen moduli for the supported characteristics, encoded as that
    integer (degree 1 through 12):

        p=2: 0, 3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9
        p=3: 0, 1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11
        p=5: 0, 2, 6, 2, 21, 7, 6, 2, 38, 33, 11, 9
        p=7: 0, 1, 2, 8, 10, 2, 43

    e.g. p=2, k=8 encodes x^8 + x^4 + x^3 + x + 1.  The table is pinned by
    a regression test; changing it silently would break reproducibility of
    every serialized matrix and codeword.
    """
    for enc in range(p**k):
        coeffs = _digits(enc, p, k)
        if _is_irreducible(coeffs + [1], p):
            return tuple(coeffs)
    raise OutOfRange(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


def _digits(value: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    v = 0
    for c in reversed(ds):
        v = v * p + c
    return v


@dataclass
class SmallField:
    """GF(p^k) with exp/log tables and subfield coordinate extraction."""

    p: int
    k: int
    modulus: tuple[int, ...] = field(init=False)
    exp: list[int] = field(init=False, repr=False)
    log: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.modulus = least_irreducible(self.p, self.k)
        self._mod_poly = list(self.modulus) + [1]
        self._weights = [self.p**i for i in range(self.k)]
        self._build_tables()
        # r -> (inverse basis matrix, F_p-basis of GF(p^r))
        self._coord_cache: dict[int, tuple[np.ndarray, list[int]]] = {}
        self._subfield_cache: dict[int, Subfield] = {}

    @property
    def order(self) -> int:
        return self.p**self.k

    # -- raw polynomial ops (used only while bootstrapping the tables) --
    def _raw_mul(self, a: int, b: int) -> int:
        pa = _poly_trim(_digits(a, self.p, self.k))
        pb = _poly_trim(_digits(b, self.p, self.k))
        if not pa or not pb:
            return 0
        prod = _poly_mulmod(pa, pb, self._mod_poly, self.p)
        return _undigits(prod + [0] * (self.k - len(prod)), self.p)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        q = self.order
        group = q - 1
        factors = _prime_factors(group) if group > 1 else []
        gamma = next(  # the least primitive element: q >= 2 always has one
            g
            for g in range(1, q)
            if all(self._raw_pow(g, group // f) != 1 for f in factors)
        )
        acc = 1
        exp = []
        for _ in range(group):
            exp.append(acc)
            acc = self._raw_mul(acc, gamma)
        self.exp = exp or [1]
        self.log = [-1] * q
        for j, v in enumerate(self.exp):
            self.log[v] = j
        self.exp_array = np.array(self.exp, dtype=np.int64)

    # -- arithmetic (digit by digit: the i-th digit of a is a // p^i mod p) --
    def add(self, a: int, b: int) -> int:
        return sum((a // w + b // w) % self.p * w for w in self._weights)

    def neg(self, a: int) -> int:
        return sum(-(a // w) % self.p * w for w in self._weights)

    def sub(self, a: int, b: int) -> int:
        out = 0  # a plain loop: the scalar referee spends its time here
        for w in self._weights:
            out += (a // w - b // w) % self.p * w
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        group = self.order - 1
        return self.exp[(self.log[a] + self.log[b]) % group]

    def power(self, a: int, s: int) -> int:
        """a^s with the evaluation convention that 0^0 = 1."""
        if a == 0:
            return 1 if s == 0 else 0
        group = self.order - 1
        return self.exp[(self.log[a] * s) % group]

    def elements_in_order(self) -> list[int]:
        """Canonical element order: 0 then ascending powers of gamma."""
        return [0] + self.exp

    # -- subfields --
    def subfield_elements(self, r: int) -> list[int]:
        """Elements of the subfield GF(p^r) (requires r | k)."""
        if self.k % r != 0:
            raise OutOfRange(f"no subfield of degree {r} in GF({self.p}^{self.k})")
        if self.order == self.p**r:
            return list(range(self.order))
        step = (self.order - 1) // (self.p**r - 1)
        return [0] + [self.exp[j * step] for j in range(self.p**r - 1)]

    def _coord_matrix(self, r: int) -> tuple[np.ndarray, list[int]]:
        """Inverse basis matrix for coordinates over the GF(p^r) power basis,
        and the F_p-basis sigma = 1, b, .., b^(r-1) of the subfield it is
        built on, b = exp[(p^k - 1)/(p^r - 1)] generating GF(p^r).

        The basis of GF(p^k) over GF(p) is {sigma_j * x^t} with t < k/r, where
        x^t (t < k) is encoded as p^t; the returned matrix converts digit
        vectors to coefficients in that basis (all mod p).
        """
        cached = self._coord_cache.get(r)
        if cached is None:
            p, k = self.p, self.k
            self.subfield_elements(r)  # raises unless r | k
            step = (self.order - 1) // (p**r - 1)
            sigma = [self.exp[j * step] for j in range(r)]
            basis = [self.mul(s, p**t) for t in range(k // r) for s in sigma]
            cols = np.array([_digits(b, p, k) for b in basis])
            cached = (_inverse_mod_p(cols.T, p), sigma)
            self._coord_cache[r] = cached
        return cached

    def fp_coordinates(self, encodings, r: int) -> np.ndarray:
        """F_p-coordinates of an array of encodings over the basis
        {sigma_j x^t} of :meth:`_coord_matrix`, on a new last axis of length
        k whose column r t + j is the coefficient of sigma_j x^t."""
        inv, _ = self._coord_matrix(r)
        digits = np.asarray(encodings, dtype=np.int64)[..., None] // self._weights
        return digits % self.p @ inv.T % self.p

    def coordinates(self, e: int, r: int) -> list[int]:
        """Coordinates of e over the GF(p^r) power basis {x^t}, as subfield
        elements (length k/r)."""
        _, sigma = self._coord_matrix(r)
        sigma_digits = np.array(sigma)[:, None] // self._weights % self.p
        sol = self.fp_coordinates(e, r).reshape(-1, r)
        return (sol @ sigma_digits % self.p @ self._weights).tolist()

    def subfield(self, r: int) -> Subfield:
        """Whole-array arithmetic of the subfield GF(p^r), built once."""
        got = self._subfield_cache.get(r)
        if got is None:
            got = self._subfield_cache[r] = Subfield.of(self, r)
        return got


@lru_cache(maxsize=None)
def _shared_field(p: int, k: int) -> SmallField:
    return SmallField(p, k)


def shared_field(p: int, k: int, cap: int = DEFAULT_FIELD_CAP) -> SmallField:
    """The one GF(p^k) of the process, tables built once; the cap is
    checked on every call."""
    if p**k > cap:
        raise CapExceeded(f"field size {p**k} exceeds cap {cap}")
    return _shared_field(p, k)


@dataclass(frozen=True)
class Subfield:
    """GF(p^r) inside GF(p^k) as numpy tables on element indices.

    Index i names ``elements[i]``, the field encodings in ascending order:
    index 0 is zero, index 1 is one and, for r = 1, an index is its value.
    ``coords[i]`` are the F_p-coordinates of element i over the basis sigma
    of :meth:`SmallField._coord_matrix`; sigma_a sigma_b = sum_c
    structure[a, b, c] sigma_c; ``from_coords[sum_j c_j p^j]`` is the index
    with coordinates c.
    """

    p: int
    elements: np.ndarray
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    coords: np.ndarray
    structure: np.ndarray
    from_coords: np.ndarray

    @classmethod
    def of(cls, fld: SmallField, r: int) -> Subfield:
        p, k = fld.p, fld.k
        if p ** (2 * r) > TABLE_CAP:
            raise CapExceeded(f"GF({p}^{r}) tables exceed {TABLE_CAP} entries")
        _, sigma = fld._coord_matrix(r)
        elements = np.array(sorted(fld.subfield_elements(r)), dtype=np.int64)
        index = partial(np.searchsorted, elements)
        weights = p ** np.arange(k)
        digits = elements[:, None] // weights % p
        group = fld.order - 1
        logs = np.array(fld.log)[elements]
        mul = fld.exp_array[(logs[:, None] + logs) % group]
        mul[0, :] = mul[:, 0] = 0
        mul = index(mul)
        inv = fld.exp_array[-logs % group]
        inv[0] = 0
        # every F_p-combination of sigma, numbered sum_j c_j p^j
        combos = np.arange(p**r)[:, None] // p ** np.arange(r) % p
        sigma_digits = np.array(sigma)[:, None] // weights % p
        from_coords = index(combos @ sigma_digits % p @ weights)
        coords = np.empty_like(combos)
        coords[from_coords] = combos
        sig = index(sigma)
        return cls(
            p=p,
            elements=elements,
            add=index((digits[:, None] + digits) % p @ weights),
            mul=mul,
            neg=index(-digits % p @ weights),
            inv=index(inv),
            coords=coords,
            structure=coords[mul[sig[:, None], sig]],
            from_coords=from_coords,
        )


def _inverse_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an invertible square matrix over GF(p) (Gauss-Jordan)."""
    k = len(mat)
    aug = np.hstack([mat % p, np.eye(k, dtype=np.int64)])
    for col in range(k):
        piv = col + np.flatnonzero(aug[col:, col])[0]
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), p - 2, p) % p
        factor = aug[:, col].copy()
        factor[col] = 0
        aug = (aug - factor[:, None] * aug[col]) % p
    return aug[:, k:]
