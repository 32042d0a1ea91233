"""Acceptance suite: one test per release criterion, with runtime budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import argmax_grade, is_unimodal, modal_series, queue_length
from fuzzycell import (
    FcmState,
    FcmVehicle,
    VehicleClass,
    crisp,
    defuzz_argmax,
    dilation_exponent,
    ext_add,
    ext_min,
    ext_sub,
    make_fuzzy,
    oracle_ext_op,
)
from fuzzycell import metrics, nasch
from fuzzycell.cli import main
from fuzzycell.model import iter_states
from fuzzycell.model import step as model_step
from fuzzycell.simio import build_fcm_state, build_nasch_state, load_builtin

GRADE_TOL = 1e-12


@contextmanager
def budget(number: int, label: str, limit_s: float):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.1f}s < {limit_s:.0f}s)")


def _random_fuzzy(rng) -> "make_fuzzy":
    size = int(rng.integers(1, 9))
    values = rng.choice(np.arange(-20, 21), size=size, replace=False)
    grades = rng.uniform(0.001, 1.0, size=size)
    grades[rng.integers(size)] = 1.0
    return make_fuzzy(list(zip(values.tolist(), grades.tolist())))


def test_criterion_1_oracle_equivalence():
    """1000 random pairs: production extension ops equal the brute oracle."""
    with budget(1, "oracle equivalence", 5.0):
        rng = np.random.default_rng(1001)
        ops = {"add": ext_add, "sub": ext_sub, "min": ext_min}
        for _ in range(1000):
            a = _random_fuzzy(rng)
            b = _random_fuzzy(rng)
            for name, fn in ops.items():
                assert fn(a, b) == oracle_ext_op(name, a, b)


def test_criterion_2_crisp_degeneration():
    """Singleton parameters, alpha=1, unit length: trajectories equal the
    deterministic baseline automaton cell for cell over 200 steps."""
    with budget(2, "crisp degeneration", 10.0):
        rng = np.random.default_rng(2026)
        for trial in range(100):
            road = int(rng.integers(25, 61))
            count = int(rng.integers(2, 9))
            v_max = int(rng.integers(2, 6))
            boundary = "ring" if trial % 2 == 0 else "open"
            positions = np.sort(rng.choice(road, size=count, replace=False)).astype(np.int64)
            cls = VehicleClass("c", crisp(1), crisp(v_max), crisp(1))
            fuzzy = FcmState(
                tuple(
                    FcmVehicle(i, cls, crisp(int(p)), crisp(0))
                    for i, p in enumerate(positions)
                ),
                road,
                boundary,
                alpha=1.0,
            )
            base = nasch.NaschState(
                road, boundary, positions.copy(), np.zeros(count, dtype=np.int64),
                v_max, 0.0, 0,
            )
            rng = np.random.default_rng(base.rng_seed)
            for t in range(200):
                fuzzy = model_step(fuzzy)
                base = nasch.nasch_step(base, rng)
                assert all(v.position.is_crisp and v.velocity.is_crisp for v in fuzzy.vehicles)
                fuzzy_pos = np.array([int(v.position.values[0]) for v in fuzzy.vehicles])
                base_pos = base.positions % road if boundary == "ring" else base.positions
                assert np.array_equal(fuzzy_pos, base_pos), (trial, t)
                fuzzy_vel = np.array([int(v.velocity.values[0]) for v in fuzzy.vehicles])
                assert np.array_equal(fuzzy_vel, base.velocities), (trial, t)


def test_criterion_3_single_vehicle_reproduction():
    """Bundled single-vehicle runs: growing support width below top speed,
    exponent exactly 1 at top speed, and grade dominance of the fuzzier run."""
    with budget(3, "single-vehicle reproduction", 5.0):
        runs = {}
        for name in ("single_vehicle_a09", "single_vehicle_a01"):
            config = load_builtin(name)
            assert config.fleet[0].position == crisp(0)
            assert config.fleet[0].velocity == crisp(0)
            states = list(iter_states(build_fcm_state(config), config.steps))
            runs[config.alpha] = (config, states)
        assert set(runs) == {0.9, 0.1}

        for alpha, (config, states) in runs.items():
            v_max = config.classes[0].v_max
            assert defuzz_argmax(v_max) == 5
            reached_top = False
            for prev, cur in zip(states, states[1:]):
                v_hat = defuzz_argmax(prev.vehicles[0].velocity)
                if v_hat < 5:  # (a) width cannot shrink below top speed
                    lo_p, hi_p = prev.vehicles[0].position.support()
                    lo_c, hi_c = cur.vehicles[0].position.support()
                    assert hi_c - lo_c >= hi_p - lo_p
            for state in states[1:]:
                velocity = state.vehicles[0].velocity
                if defuzz_argmax(velocity) == 5:
                    reached_top = True
                    assert dilation_exponent(velocity, v_max, alpha) == 1.0  # (b)
            assert reached_top

        sharp_states = runs[0.9][1]
        fuzzy_states = runs[0.1][1]
        for sharp, fuzzy in zip(sharp_states[1:], fuzzy_states[1:]):  # (c)
            ps = sharp.vehicles[0].position
            pf = fuzzy.vehicles[0].position
            assert ps.values.tolist() == pf.values.tolist()
            assert np.all(pf.grades >= ps.grades - GRADE_TOL)


def test_criterion_4_queue_discharge():
    """Bundled 50-vehicle queue: exact initial fuzzy length, monotone
    discharge in both models, and mode containment along the way."""
    with budget(4, "queue discharge", 60.0):
        config = load_builtin("queue50")
        assert config.nasch.p == 0.2 and config.nasch.v_max == 3
        assert config.nasch.runs == 200

        slots = [defuzz_argmax(e.position) for e in config.fleet]
        series = [
            queue_length(state, slots)
            for state in iter_states(build_fcm_state(config), config.steps)
        ]
        assert series[0] == {50: 1.0}
        fuzzy_lengths = [argmax_grade(q) for q in series]
        assert all(a >= b for a, b in zip(fuzzy_lengths, fuzzy_lengths[1:]))
        assert fuzzy_lengths[-1] == 0

        ensemble = nasch.monte_carlo(
            build_nasch_state(config), config.steps, config.nasch.runs,
            config.nasch.base_seed,
        )
        hist = metrics.empirical_queue_distribution(ensemble)
        assert np.allclose(hist.sum(axis=1), 1.0)
        modes = modal_series(hist)
        assert modes[0] == 50
        assert np.all(np.diff(modes) <= 0)
        assert modes[-1] == 0

        fuzzy_zero = fuzzy_lengths.index(0)
        modal_zero = int(np.argmax(modes == 0))
        horizon = max(fuzzy_zero, modal_zero)
        contained = sum(
            1 for t in range(horizon + 1) if int(modes[t]) in series[t]
        )
        assert contained / (horizon + 1) >= 0.9


def test_criterion_5_fundamental_diagrams():
    """Density sweep on the 100-cell ring for both models: zero flow in the
    jam, unimodal flow within one grid point, stated thresholds applied."""
    with budget(5, "fundamental diagrams", 120.0):
        fcm_config = load_builtin("ring_fd_fcm")
        nasch_config = load_builtin("ring_fd_nasch")
        densities = [round(0.05 * k, 2) for k in range(1, 20)]
        for config in (fcm_config, nasch_config):
            assert config.road_length == 100
            assert list(config.fd.densities) == pytest.approx(densities)
            assert config.fd.warmup == 100 and config.fd.window == 500
        assert fcm_config.fd.theta == 0.99
        assert nasch_config.fd.nasch_threshold == 0.1

        fcm_points = metrics.sweep_fundamental_diagram(fcm_config)
        nasch_points = metrics.sweep_fundamental_diagram(nasch_config)

        fcm_flows = [p.flow_argmax for p in fcm_points]
        nasch_flows = [p.mean_flow for p in nasch_points]
        assert is_unimodal(fcm_flows, tolerance_points=1)
        assert is_unimodal(nasch_flows, tolerance_points=1)
        for point in fcm_points:
            assert point.flow_cut_low <= point.flow_argmax <= point.flow_cut_high
        # dot sets carry only states at or above the stated threshold; near
        # capacity the flow distribution can spread so wide that no single
        # state reaches it, which is a legitimate empty set
        assert any(point.states for point in nasch_points)
        for point in nasch_points:
            for _, prob in point.states:
                assert prob >= nasch_config.fd.nasch_threshold

        jam_fcm, jam_nasch = (
            metrics.sweep_fundamental_diagram(
                replace(config, fd=replace(config.fd, densities=[1.0], warmup=20, window=50))
            )[0]
            for config in (fcm_config, nasch_config)
        )
        assert jam_fcm.flow_argmax == 0.0
        assert jam_fcm.flow_cut_low == 0.0 and jam_fcm.flow_cut_high == 0.0
        assert jam_nasch.mean_flow == 0.0


def test_criterion_6_deterministic_outputs(tmp_path):
    """Repeated runs with fixed seeds produce byte-identical CSV and PGM."""
    with budget(6, "deterministic outputs", 30.0):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            assert main(["compare", "queue50", "--out-dir", str(out), "--seed", "13000"]) == 0
            assert main(["run", "single_vehicle_a09", "--out-dir", str(out)]) == 0
        for name in (
            "queue50_fcm_queue.csv",
            "queue50_nasch_queue.csv",
            "single_vehicle_a09.pgm",
        ):
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b and len(a) > 0
