"""Shared fixtures, hypothesis strategies and test helpers."""

import hypothesis.strategies as st
import numpy as np
import pytest

from fuzzycell import FcmState, FcmVehicle, FuzzyInt, VehicleClass, crisp, make_fuzzy
from fuzzycell.model import in_queue_degree, iter_rows, queue_length_of_rows
from fuzzycell.nasch import NaschState


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


def queue_length(state, slots):
    """The engine's fuzzy queue length of one state, read from its rows."""
    return queue_length_of_rows(next(iter_rows(state, 0)), slots)


def stopped_queue(vclass, count, road_length) -> FcmState:
    """A stopped column of vehicles on an open road from cell 0, rear first."""
    vehicles = tuple(FcmVehicle(i, vclass, crisp(i), crisp(0)) for i in range(count))
    return FcmState(vehicles, road_length, "open")


def queue_state(count, road_length, v_max=3, p=0.2, seed=0) -> NaschState:
    """A stopped baseline column on an open road from cell 0."""
    stopped = np.zeros(count, dtype=np.int64)
    return NaschState(road_length, "open", np.arange(count), stopped, v_max, p, seed)


def argmax_grade(dist: dict[int, float]) -> int:
    """Value with maximal grade, smallest value on ties; 0 for empty."""
    if not dist:
        return 0
    best_value = 0
    best_grade = -1.0
    for value in sorted(dist):
        if dist[value] > best_grade:
            best_grade = dist[value]
            best_value = value
    return best_value


def modal_series(hist: np.ndarray) -> np.ndarray:
    """Most probable length per step (smallest on ties)."""
    return hist.argmax(axis=1)


def is_unimodal(values, tolerance_points: int = 1) -> bool:
    """Rise-then-fall check that ignores wiggles shorter than the tolerance.

    Comparisons are enforced only between entries more than
    ``tolerance_points`` grid points apart, so single-point noise (the
    default) does not break the verdict while dips or rebounds sustained
    over more than ``tolerance_points`` consecutive entries do.
    """
    seq = list(values)
    n = len(seq)
    lag = tolerance_points + 1
    for peak in range(n):
        ok = True
        for i in range(n):
            for j in range(i + lag, n):
                if j <= peak and seq[i] > seq[j]:
                    ok = False
                    break
                if i >= peak and seq[i] < seq[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
