"""Microscopic traffic simulation with fuzzy-integer vehicle state.

Vehicles carry discrete fuzzy numbers for position and velocity; the
update rule propagates them with extension-principle arithmetic and a
velocity-dependent dilation that plays the role randomization plays in
classical stochastic cell automata.  A seeded Nagel-Schreckenberg
automaton ships alongside as the comparison baseline.
"""

from .fuzznum import (
    BadExponentError,
    BadGradeError,
    DuplicateValueError,
    EmptySupportError,
    FuzzyInt,
    FuzzyNumError,
    NotNormalError,
    alpha_cut,
    crisp,
    defuzz_argmax,
    dilate,
    ext_add,
    ext_min,
    ext_sub,
    make_fuzzy,
    oracle_ext_op,
    truncate,
    wrap_mod,
)
from .model import (
    DegenerateClassError,
    FcmState,
    FcmVehicle,
    VehicleClass,
    advance_position,
    cell_occupancy,
    dilation_exponent,
    gap,
    ring_state,
    step,
    update_velocity,
)

__all__ = [
    "BadExponentError",
    "BadGradeError",
    "DegenerateClassError",
    "DuplicateValueError",
    "EmptySupportError",
    "FcmState",
    "FcmVehicle",
    "FuzzyInt",
    "FuzzyNumError",
    "NotNormalError",
    "VehicleClass",
    "advance_position",
    "alpha_cut",
    "cell_occupancy",
    "crisp",
    "defuzz_argmax",
    "dilate",
    "dilation_exponent",
    "ext_add",
    "ext_min",
    "ext_sub",
    "gap",
    "make_fuzzy",
    "oracle_ext_op",
    "ring_state",
    "step",
    "truncate",
    "update_velocity",
    "wrap_mod",
]

__version__ = "0.1.0"
