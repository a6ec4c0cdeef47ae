"""Exact integer kernel for the cone partial orders on Z^3 and Z^2.

The 3D order is defined by a circulant matrix P with entries p^((i-j) mod e):
u precedes v when every coordinate of (u - v)P is <= 0.  Restricting to a
plane parallel to the xy-plane gives a planar cone

    D = {(x, y) : x + p*y <= 0,  p^2*x + y <= 0},

and all 2D work in this package happens in the order defined by D.  Every
predicate here is integer-only.  The planar predicate itself and the
generic-e, cross-section and rational anchor forms of the order, which only
tests compare against, live in the test referees (``tests/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange

Point2 = tuple[int, int]
Point3 = tuple[int, int, int]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    for q in _SMALL_PRIMES:
        if x == q:
            return True
        if x % q == 0:
            return False
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 37):  # deterministic for x < 3.3e24
        w = pow(a % x, d, x)
        if w in (1, x - 1):
            continue
        for _ in range(r - 1):
            w = w * w % x
            if w == x - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Params:
    """Instance parameters: prime p, exponent m with 3 | m, and r in {1, 3}.

    The derived side length is n = (m/3)(p-1); the 3D box is {0..n}^3.
    """

    p: int
    m: int
    r: int = 3

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise OutOfRange(f"p = {self.p} is not prime")
        if self.m <= 0 or self.m % 3 != 0:
            raise OutOfRange(f"m = {self.m} must be a positive multiple of 3")
        if self.r not in (1, 3):
            raise OutOfRange(f"r = {self.r} must be 1 or 3")

    @property
    def n(self) -> int:
        return (self.m // 3) * (self.p - 1)


def precedes3(u: Point3, v: Point3, p: int) -> bool:
    """Whether u precedes v in the 3D cone order for the prime p."""
    d = (u[0] - v[0], u[1] - v[1], u[2] - v[2])
    d0, d1, d2 = d
    p2 = p * p
    return (
        d0 + d1 * p + d2 * p2 <= 0
        and d0 * p2 + d1 + d2 * p <= 0
        and d0 * p + d1 * p2 + d2 <= 0
    )


def rotate(u: Point3) -> Point3:
    """Cyclic coordinate rotation (x, y, z) -> (y, z, x); order three."""
    return (u[1], u[2], u[0])
