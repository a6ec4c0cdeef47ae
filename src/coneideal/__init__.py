"""Exact enumeration of invariant cone ideals and affine-invariant codes.

The package splits into a pure-geometry kernel (:mod:`coneideal.order`), the
boundary-walk calculus (:mod:`coneideal.walks`), two enumeration engines
(:mod:`coneideal.slicing` for plain ideals, :mod:`coneideal.symmetric` for
rotation-invariant ones), the finite-field bridge (:mod:`coneideal.codes`),
and a CLI (:mod:`coneideal.cli`).  The brute-force referees that check them
live with the tests, in ``tests/oracle.py``.  Every name is imported from
its own module; this file re-exports nothing.
"""

__version__ = "0.1.0"
