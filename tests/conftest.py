"""Shared fixtures and hypothesis strategies."""

import hypothesis.strategies as st
import pytest

from fuzzycell import FuzzyInt, VehicleClass, crisp, make_fuzzy
from fuzzycell.metrics import in_queue_degree


@st.composite
def fuzzy_ints(draw, min_value=-20, max_value=20, max_size=8):
    """A normal discrete fuzzy integer with bounded support."""
    values = draw(
        st.lists(
            st.integers(min_value, max_value),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )
    grades = [
        draw(st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
        for _ in values
    ]
    grades[draw(st.integers(0, len(values) - 1))] = 1.0
    return make_fuzzy(list(zip(values, grades)))


@pytest.fixture
def paper_single_class() -> VehicleClass:
    """Class used by the bundled single-vehicle scenarios."""
    return VehicleClass(
        "car",
        crisp(0),
        make_fuzzy([(4, 0.2), (5, 1.0), (6, 0.2)]),
        make_fuzzy([(0, 0.2), (1, 1.0), (2, 0.2)]),
    )


@pytest.fixture
def queue_class() -> VehicleClass:
    """Class used by the bundled queue scenario."""
    return VehicleClass(
        "car",
        crisp(0),
        make_fuzzy([(2, 0.2), (3, 1.0), (4, 0.2)]),
        make_fuzzy([(0, 0.2), (1, 1.0), (2, 0.2)]),
    )


def fuzzy_from(pairs) -> FuzzyInt:
    return make_fuzzy(pairs)


def queue_length_reference(state, slots):
    """The graded prefix rule composed from per-vehicle in-queue degrees."""
    degrees = [in_queue_degree(veh, slot) for veh, slot in zip(state.vehicles, slots)]
    out = {}
    for x in range(len(degrees) + 1):
        grade = min([*degrees[:x], *(1.0 - d for d in degrees[x:])], default=1.0)
        if grade > 0.0:
            out[x] = grade
    return out
