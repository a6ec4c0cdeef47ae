"""Small finite fields with log tables and subfield coordinate maps.

Elements of GF(p^k) are integers 0..p^k-1 encoding coefficient vectors in
base p over the power basis of x modulo the lexicographically least monic
irreducible (smallest integer encoding of its non-leading coefficients), so
all tables are reproducible byte for byte.  Multiplication by an element is
an F_p-linear map of digit vectors, and each field is built from one: the
companion matrix of its modulus.  Ben-Or's irreducibility test reads its
powers, and the exp table of the least primitive element is filled by
doubling.  Multiplication goes through exp/log tables, and whole-row
arithmetic in a subfield GF(p^r) through the numpy tables of
:class:`Subfield`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import CapExceeded, OutOfRange

DEFAULT_FIELD_CAP = 1 << 20
TABLE_CAP = 1 << 24  # entries of one Q x Q subfield table (128 MB of int64)


def _companion(coeffs: tuple[int, ...], p: int) -> np.ndarray:
    """Multiplication by x on digit vectors, modulo x^k + sum_i coeffs[i] x^i."""
    x = np.eye(len(coeffs), k=-1, dtype=np.int64)
    x[:, -1] = [-c % p for c in coeffs]
    return x


def _mat_pow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(mat), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        e >>= 1
    return out


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
        coeffs = tuple(enc // p**i % p for i in range(k))
        # Ben-Or: irreducible exactly when gcd(f, x^(p^d) - x) = 1, that is
        # X^(p^d) - X is invertible for the companion matrix X, for d <= k/2
        x = _companion(coeffs, p)
        if all(
            _inverse_mod_p(_mat_pow(x, p**d, p) - x, p) is not None
            for d in range(1, k // 2 + 1)
        ):
            return coeffs
    raise OutOfRange(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


@dataclass
class SmallField:
    """GF(p^k) with exp/log tables and subfield coordinate extraction."""

    p: int
    k: int
    modulus: tuple[int, ...] = field(init=False)
    exp: list[int] = field(init=False, repr=False)
    log: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.order
        self.modulus = least_irreducible(p, self.k)
        self._x = _companion(self.modulus, p)
        self._weights = [p**i for i in range(self.k)]
        group = q - 1
        factors = _prime_factors(group)
        one = np.eye(self.k, dtype=np.int64)
        gamma = next(  # the least primitive element: q >= 2 always has one
            g
            for g in range(1, q)
            if all(
                (_mat_pow(self._times(g), group // f, p) != one).any() for f in factors
            )
        )
        # the digits of gamma^(s+j) are the matrix of gamma^w times those of
        # gamma^(s-w+j); w doubles with s up to blocks of 2^16 powers
        self.exp_array = np.ones(group, dtype=np.int64)
        step, w, s = self._times(gamma), 1, 1
        while s < group:
            n = min(w, group - s)
            digits = self.exp_array[s - w : s - w + n, None] // self._weights % p
            self.exp_array[s : s + n] = digits @ step.T % p @ self._weights
            s += n
            if w < 1 << 16:
                step, w = step @ step % p, 2 * w
        self.exp = self.exp_array.tolist()
        log = np.full(q, -1, dtype=np.int64)
        log[self.exp_array] = np.arange(group)
        self.log = log.tolist()
        # r -> (inverse basis matrix, F_p-basis of GF(p^r))
        self._coord_cache: dict[int, tuple[np.ndarray, list[int]]] = {}
        self._subfield_cache: dict[int, Subfield] = {}

    @property
    def order(self) -> int:
        return self.p**self.k

    def _times(self, c: int) -> np.ndarray:
        """Multiplication by c: column t holds the digits of c x^t."""
        cols = [np.array(c) // self._weights % self.p]
        for _ in range(self.k - 1):
            cols.append(self._x @ cols[-1] % self.p)
        return np.stack(cols, axis=1)

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
            # column r t + j holds the digits of sigma_j x^t
            basis = np.stack([self._times(s)[:, : k // r] for s in sigma], axis=2)
            cached = (_inverse_mod_p(basis.reshape(k, k), p), sigma)
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


def _inverse_mod_p(mat: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square matrix over GF(p) (Gauss-Jordan); None if singular."""
    k = len(mat)
    aug = np.hstack([mat % p, np.eye(k, dtype=np.int64)])
    for col in range(k):
        piv = col + np.argmax(aug[col:, col] != 0)
        if aug[piv, col] == 0:
            return None
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), p - 2, p) % p
        factor = aug[:, col].copy()
        factor[col] = 0
        aug = (aug - factor[:, None] * aug[col]) % p
    return aug[:, k:]
