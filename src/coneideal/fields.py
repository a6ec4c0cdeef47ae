"""Small finite fields with log tables and subfield coordinate maps.

Elements of GF(p^k) are integers 0..p^k-1 encoding coefficient vectors in
base p over the power basis of x modulo a fixed monic irreducible.  The
modulus is the lexicographically least irreducible (smallest integer
encoding of its non-leading coefficients), so all tables are reproducible
byte for byte.  Multiplication goes through exp/log tables of the least
primitive element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapExceeded, OutOfRange

DEFAULT_FIELD_CAP = 1 << 20


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
    return _poly_divmod(out, mod, p)[1]


def _poly_divmod(a: list[int], mod: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    deg_m = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    q = [0] * max(0, len(a) - deg_m)
    while len(_poly_trim(a)) - 1 >= deg_m and a:
        shift = len(a) - 1 - deg_m
        coef = a[-1] * inv_lead % p
        q[shift] = coef
        for i, cm in enumerate(mod):
            a[shift + i] = (a[shift + i] - coef * cm) % p
        _poly_trim(a)
    return q, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while _poly_trim(b):
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_trim(a)


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    return _poly_trim(
        [
            ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        ]
    )


def _poly_pow_x(exp: int, mod: list[int], p: int) -> list[int]:
    """x^exp modulo mod over GF(p)."""
    result = [1]
    base = [0, 1]
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        exp >>= 1
    return result


def _is_irreducible(mod: list[int], p: int) -> bool:
    k = len(mod) - 1
    x_red = _poly_divmod([0, 1], mod, p)[1]  # x reduced, in case k = 1
    if _poly_sub(_poly_pow_x(p**k, mod, p), x_red, p):
        return False
    for q in _prime_factors(k):
        d = _poly_sub(_poly_pow_x(p ** (k // q), mod, p), x_red, p)
        g = _poly_gcd(mod[:], d, p)
        if len(g) - 1 > 0:
            return False
    return True


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

    e.g. p=2, k=8 encodes x^8 + x^4 + x^3 + x + 1.  The table is pinned by
    a regression test; changing it silently would break reproducibility of
    every serialized matrix and codeword.
    """
    for enc in range(p**k):
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p):
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
    cap: int = DEFAULT_FIELD_CAP
    modulus: tuple[int, ...] = field(init=False)
    exp: list[int] = field(init=False, repr=False)
    log: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q = self.p**self.k
        if q > self.cap:
            raise CapExceeded(f"field size {q} exceeds cap {self.cap}")
        self.modulus = least_irreducible(self.p, self.k)
        self._mod_poly = list(self.modulus) + [1]
        self._build_tables()
        # r -> (inverse basis matrix, F_p-basis of GF(p^r))
        self._coord_cache: dict[int, tuple[list[list[int]], list[int]]] = {}

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
        gamma = None
        for g in range(1, q):
            if all(self._raw_pow(g, group // f) != 1 for f in factors):
                gamma = g
                break
        if gamma is None:  # pragma: no cover - q >= 2 always has a generator
            raise OutOfRange("no primitive element found")
        self.gamma = gamma
        acc = 1
        exp = []
        for _ in range(group):
            exp.append(acc)
            acc = self._raw_mul(acc, gamma)
        self.exp = exp or [1]
        self.log = [-1] * q
        for j, v in enumerate(self.exp):
            self.log[v] = j

    # -- arithmetic --
    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        group = self.order - 1
        return self.exp[(self.log[a] + self.log[b]) % group]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        group = self.order - 1
        return self.exp[(-self.log[a]) % group]

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

    def _coord_matrix(self, r: int) -> tuple[list[list[int]], list[int]]:
        """Inverse basis matrix for coordinates over the GF(p^r) power basis,
        and the F_p-basis sigma of the subfield it is built on.

        The basis of GF(p^k) over GF(p) is {sigma_j * x^t} with t < k/r, where
        x^t (t < k) is encoded as p^t; the returned matrix converts digit
        vectors to coefficients in that basis (all mod p).
        """
        cached = self._coord_cache.get(r)
        if cached is not None:
            return cached
        p, k = self.p, self.k
        sub = self.subfield_elements(r)
        sigma: list[int] = []
        span = {0}
        for e in sub:
            if e in span:
                continue
            sigma.append(e)
            span = {self.add(s, self.mul(e, c)) for s in span for c in range(p)}
            if len(sigma) == r:
                break
        cols = [
            _digits(self.mul(s, p**t), p, k) for t in range(k // r) for s in sigma
        ]
        # invert the k x k matrix whose columns are cols, over GF(p)
        mat = [[cols[j][i] for j in range(k)] for i in range(k)]
        self._coord_cache[r] = (_matrix_inverse_mod_p(mat, p), sigma)
        return self._coord_cache[r]

    def coordinates(self, e: int, r: int) -> list[int]:
        """Coordinates of e over the GF(p^r) power basis {x^t}, as subfield
        elements (length k/r)."""
        inv, sigma = self._coord_matrix(r)
        p, k = self.p, self.k
        vec = _digits(e, p, k)
        sol = [sum(inv[i][j] * vec[j] for j in range(k)) % p for i in range(k)]
        out = []
        for t in range(k // r):
            acc = 0
            for j in range(r):
                acc = self.add(acc, self.mul(sigma[j], sol[t * r + j]))
            out.append(acc)
        return out

    def from_coordinates(self, coords: list[int], r: int) -> int:
        """Inverse of :meth:`coordinates`."""
        acc = 0
        for t, c in enumerate(coords):
            acc = self.add(acc, self.mul(c, self.p**t))
        return acc


def _matrix_inverse_mod_p(mat: list[list[int]], p: int) -> list[list[int]]:
    k = len(mat)
    aug = [row[:] + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, k) if aug[r][col] % p), None)
        if piv is None:
            raise OutOfRange("singular basis matrix")  # pragma: no cover
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [v * inv % p for v in aug[row]]
        for r in range(k):
            if r != row and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[row])]
        row += 1
    return [r[k:] for r in aug]
