"""Baseline cell automaton: rule, determinism, and the ensemble runner."""

import tracemalloc
from dataclasses import replace

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import example, given, settings

from fuzzycell.nasch import (
    NaschState,
    monte_carlo,
    nasch_step,
    queue_length,
    queue_state,
    ring_uniform,
    trajectory,
)

# PCG64 output locked down: the simulation contract guarantees this exact
# stream for seed 20100553 across platforms.
GOLDEN_SEED = 20100553
GOLDEN_DRAWS = [
    0.7033031108189206,
    0.5472902148410065,
    0.9675416965430027,
    0.8802012844913536,
]


def test_rng_golden_sequence():
    got = np.random.default_rng(GOLDEN_SEED).random(4)
    assert got.tolist() == GOLDEN_DRAWS


def test_state_validation():
    with pytest.raises(ValueError):
        queue_state(3, 10, v_max=0)
    with pytest.raises(ValueError):
        queue_state(3, 10, p=1.5)
    with pytest.raises(ValueError):
        NaschState(10, "ring", np.array([0, 0]), np.array([0, 0]), 3, 0.2, 1)
    with pytest.raises(ValueError):
        NaschState(10, "open", np.array([0, 1]), np.array([0, 4]), 3, 0.2, 1)


def test_free_driving_keeps_top_speed():
    st = NaschState(50, "open", np.array([0, 10]), np.array([3, 3]), 3, 0.0, 1)
    nxt = nasch_step(st)
    assert nxt.velocities.tolist() == [3, 3]
    assert nxt.positions.tolist() == [3, 13]


def test_blocked_vehicle_stays_stopped():
    # leader adjacent: gap 0 dominates whatever the draw says
    st = NaschState(50, "open", np.array([4, 5]), np.array([0, 0]), 3, 1.0, 7)
    nxt = nasch_step(st)
    assert nxt.velocities[0] == 0 and nxt.positions[0] == 4


def test_randomization_decrements():
    # p=1 forces the slowdown after accelerating: 2 -> 3 -> brake 3 -> 2
    st = NaschState(50, "open", np.array([0]), np.array([2]), 3, 1.0, 7)
    nxt = nasch_step(st)
    assert nxt.velocities[0] == 2 and nxt.positions[0] == 2


def test_determinism_per_seed():
    a = trajectory(queue_state(10, 100, seed=5), 50)
    b = trajectory(queue_state(10, 100, seed=5), 50)
    c = trajectory(queue_state(10, 100, seed=6), 50)
    assert all(np.array_equal(x.positions, y.positions) for x, y in zip(a, b))
    assert any(not np.array_equal(x.positions, y.positions) for x, y in zip(a, c))


def test_ring_conserves_and_never_collides():
    st = ring_uniform(20, 40, v_max=5, p=0.3, seed=11)
    for _ in range(200):
        st = nasch_step(st)
        assert np.all(np.diff(st.positions) > 0)
        cells = np.unique(st.positions % 40)
        assert cells.size == 20


def test_deterministic_queue_discharges():
    st = queue_state(15, 150, v_max=3, p=0.0, seed=0)
    start = st.positions.copy()
    lengths = [queue_length(st, start)]
    for _ in range(80):
        st = nasch_step(st)
        lengths.append(queue_length(st, start))
    assert lengths[0] == 15
    assert lengths[-1] == 0
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))


def test_queue_length_definition():
    start = np.array([0, 1, 2, 3])
    st = NaschState(50, "open", np.array([0, 1, 3, 5]), np.array([0, 0, 1, 2]), 3, 0.2, 1, step=3)
    # vehicles 0 and 1 still parked at their slots, 2 and 3 moved
    assert queue_length(st, start) == 2
    stopped_hole = NaschState(50, "open", np.array([0, 2, 3]), np.array([0, 0, 0]), 3, 0.2, 1, step=3)
    assert queue_length(stopped_hole, np.array([0, 1, 2])) == 1


def test_monte_carlo_matches_sequential_runs():
    initial = queue_state(12, 150, v_max=3, p=0.2, seed=0)
    ens = monte_carlo(initial, 40, 4, base_seed=500)
    for i in range(4):
        st = queue_state(12, 150, v_max=3, p=0.2, seed=500 + i)
        start = st.positions.copy()
        assert ens.queue_lengths[i, 0] == queue_length(st, start)
        for t in range(40):
            st = nasch_step(st)
            assert ens.queue_lengths[i, t + 1] == queue_length(st, start)


def test_monte_carlo_single_run_deterministic():
    initial = queue_state(8, 100)
    a = monte_carlo(initial, 30, 1, base_seed=77)
    b = monte_carlo(initial, 30, 1, base_seed=77)
    assert np.array_equal(a.queue_lengths, b.queue_lengths)
    assert np.array_equal(a.total_velocity, b.total_velocity)


def test_monte_carlo_p_zero_rows_identical():
    initial = queue_state(8, 100, p=0.0)
    ens = monte_carlo(initial, 30, 5, base_seed=3)
    assert np.all(ens.queue_lengths == ens.queue_lengths[0])
    assert np.all(ens.total_velocity == ens.total_velocity[0])


def test_monte_carlo_requires_runs():
    with pytest.raises(ValueError):
        monte_carlo(queue_state(3, 20), 5, 0, 1)


def test_monte_carlo_empty_fleet():
    empty = NaschState(20, "ring", np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3, 0.2, 1)
    ens = monte_carlo(empty, 10, 3, 0)
    assert ens.queue_lengths.shape == (3, 11)
    assert np.all(ens.total_velocity == 0)


def test_ring_site_crossings_counted():
    initial = ring_uniform(4, 10, v_max=3, p=0.0, seed=0)
    ens = monte_carlo(initial, 30, 1, base_seed=0)
    # deterministic free-ish flow on a ring: every lap crosses the seam once
    assert ens.crossings.sum() > 0
    assert np.all(ens.crossings <= 4)


@hs.composite
def nasch_states(draw):
    """Valid states: 0-10 vehicles with any velocities, open roads (some with
    gaps too wide for 16-bit integers) and rings (positions on any lap),
    v_max up to past the road length, p at 0, at 1 or between."""
    boundary = draw(hs.sampled_from(["open", "ring"]))
    road = draw(hs.one_of(hs.integers(1, 40), hs.integers(60, 130)))
    v_max = draw(hs.integers(1, road + 5))
    if boundary == "ring":
        cells = draw(hs.sets(hs.integers(0, road - 1), max_size=min(road, 10)))
        positions = np.array(sorted(cells), dtype=np.int64) + road * draw(hs.integers(-3, 3))
    else:
        spread = draw(hs.sampled_from([road, 40_000]))
        positions = sorted(draw(hs.sets(hs.integers(-spread, spread), max_size=10)))
    velocities = [draw(hs.integers(0, v_max)) for _ in positions]
    p = draw(hs.one_of(hs.sampled_from([0.0, 1.0]), hs.floats(0.0, 1.0)))
    return NaschState(road, boundary, positions, velocities, v_max, p, 0)


def _stepped_run(initial, steps, seed):
    """Queue lengths, total velocities and seam crossings of one run of
    ``nasch_step`` with generator seed ``seed``."""
    st = replace(initial, rng_seed=seed, rng=None)
    start, C = st.positions.copy(), st.road_length
    qlen, total_v, crossings = [queue_length(st, start)], [], []
    for _ in range(steps):
        nxt = nasch_step(st)
        total_v.append(int(nxt.velocities.sum()))
        moved_laps = nxt.positions // C - st.positions // C
        crossings.append(int(moved_laps.sum()) if st.boundary == "ring" else 0)
        qlen.append(queue_length(nxt, start))
        st = nxt
    return qlen, total_v, crossings


@settings(max_examples=150, deadline=None)
@given(nasch_states(), hs.integers(0, 150), hs.integers(1, 4), hs.integers(0, 2**32))
@example(ring_uniform(1, 100, v_max=60, p=0.3), 130, 2, 9)  # laps past 8-bit integers
@example(NaschState(40, "open", [0, 100], [0, 40], 40, 0.5, 0), 20, 2, 3)  # so does a gap
@example(NaschState(30, "open", range(0, 210, 21), [20] * 10, 20, 0.0, 0), 1, 1, 0)  # a sum
@example(NaschState(5, "ring", [1, 2, 4], [2, 0, 1], 7, 0.0, 0), 70, 2, 5)
@example(queue_state(6, 30, p=1.0), 0, 3, 1)
def test_monte_carlo_matches_stepped_runs(initial, steps, runs, base_seed):
    ens = monte_carlo(initial, steps, runs, base_seed)
    outputs = (ens.queue_lengths, ens.total_velocity, ens.crossings)
    for out, width in zip(outputs, (steps + 1, steps, steps)):
        assert out.shape == (runs, width) and out.dtype == np.int64 and out.flags.c_contiguous
    for i in range(runs):
        expected = _stepped_run(initial, steps, base_seed + i)
        assert [out[i].tolist() for out in outputs] == list(expected)


def test_monte_carlo_memory_does_not_grow_with_steps():
    # no buffer may grow with runs x steps x vehicles: beyond the returned
    # arrays, 6000 steps peak no higher than 600
    initial = ring_uniform(95, 100)

    def peak_beyond_outputs(steps):
        tracemalloc.start()
        try:
            ens = monte_carlo(initial, steps, 50, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in (ens.queue_lengths, ens.total_velocity, ens.crossings))

    # less than one step of draws for every run; an up-front buffer adds 5400
    assert peak_beyond_outputs(6000) - peak_beyond_outputs(600) < 50 * 95 * 8
