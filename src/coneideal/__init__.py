"""Exact enumeration of invariant cone ideals and affine-invariant codes.

The package splits into a pure-geometry kernel (:mod:`coneideal.order`), the
boundary-walk calculus (:mod:`coneideal.walks`), two enumeration engines
(:mod:`coneideal.slicing` for plain ideals, :mod:`coneideal.symmetric` for
rotation-invariant ones), the finite-field bridge (:mod:`coneideal.codes`),
and a CLI (:mod:`coneideal.cli`).  The brute-force referees that check them
live with the tests, in ``tests/oracle.py``.
"""

from .errors import (
    BoundsInverted,
    CapExceeded,
    ConeIdealError,
    HostMismatch,
    InconsistentInput,
    InvalidWalk,
    NoSuchWalk,
    NotAnIdeal,
    NotInvariant,
    OutOfRange,
)
from .order import Params, Point2, Point3, precedes3, rotate
from .slicing import (
    backward_bounds,
    count_interval,
    enumerate_all_r3,
    enumerate_interval,
    forward_bounds,
    LayerSequence,
    layers_to_points,
)
from .symmetric import (
    enumerate_all_r1,
    enumerate_layer_sym,
    SymLayerSequence,
    symmetric_bounds,
)
from .walks import (
    extremal_walk,
    highest_extension,
    IdealSet2,
    join,
    lowest_extension,
    meet,
    Rect,
    Walk,
    walk_leq,
    walk_of,
)

__version__ = "0.1.0"
