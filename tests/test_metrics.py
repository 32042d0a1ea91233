"""Observable extraction: queue rules, flow summaries, diagram sweeps."""

from dataclasses import replace

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    argmax_grade,
    fuzzy_ints,
    is_unimodal,
    modal_series,
    queue_length,
    queue_length_reference,
    queue_state,
    stopped_queue,
)
from fuzzycell import (
    FcmState,
    FcmVehicle,
    VehicleClass,
    alpha_cut,
    crisp,
    defuzz_argmax,
    ext_add,
    make_fuzzy,
    ring_state,
    step,
)
from fuzzycell import nasch
from fuzzycell.model import flow_summary, in_queue_degree, iter_states, run_ring
from fuzzycell.simio import (
    FdSettings,
    NaschSettings,
    ScenarioConfig,
    ScenarioValidationError,
    load_builtin,
)
from fuzzycell.metrics import FdPoint, empirical_queue_distribution, sweep_fundamental_diagram


def fz(*pairs):
    return make_fuzzy(list(pairs))


def ring_class():
    return VehicleClass(
        "car", crisp(1), fz((2, 0.2), (3, 1.0), (4, 0.2)), fz((0, 0.2), (1, 1.0), (2, 0.2))
    )


def sweep_config(model, fd=FdSettings()):
    """A 40-cell ring scenario; the sweep builds its own fleets."""
    return ScenarioConfig(
        model=model,
        road_length=40,
        boundary="ring",
        steps=1,
        classes=(ring_class(),),
        nasch=NaschSettings(runs=20, base_seed=42),
        fd=fd,
    )


# ---------------------------------------------------------------------------
# queue rules


def test_in_queue_degree_fully_queued(queue_class):
    veh = FcmVehicle(0, queue_class, crisp(7), crisp(0))
    assert in_queue_degree(veh, 7) == 1.0


def test_in_queue_degree_partial(queue_class):
    veh = FcmVehicle(0, queue_class, fz((7, 0.3), (8, 1.0)), fz((0, 0.2), (1, 1.0)))
    assert in_queue_degree(veh, 7) == pytest.approx(0.2)


def test_in_queue_degree_zero_without_zero_velocity(queue_class):
    veh = FcmVehicle(0, queue_class, crisp(7), fz((1, 1.0), (2, 0.5)))
    assert in_queue_degree(veh, 7) == 0.0


def test_queue_length_initial_block(queue_class):
    st = stopped_queue(queue_class, 50, 700)
    assert queue_length(st, range(50)) == {50: 1.0}


def test_queue_length_front_vehicle_leaving(queue_class):
    vehicles = [FcmVehicle(i, queue_class, crisp(i), crisp(0)) for i in range(49)]
    vehicles.append(
        FcmVehicle(49, queue_class, fz((49, 0.2), (50, 1.0)), fz((0, 0.2), (1, 1.0)))
    )
    st = FcmState(tuple(vehicles), 700, "open", step=1)
    got = queue_length(st, range(50))
    assert got == pytest.approx({49: 0.8, 50: 0.2})


def test_queue_length_all_discharged(queue_class):
    vehicles = tuple(
        FcmVehicle(i, queue_class, crisp(10 + 2 * i), crisp(2)) for i in range(5)
    )
    st = FcmState(vehicles, 100, "open", step=4)
    assert queue_length(st, range(5)) == {0: 1.0}


def test_queue_length_contradictory_degrees_is_empty(queue_class):
    # front still queued while the rear has left: no length is possible
    vehicles = (
        FcmVehicle(0, queue_class, crisp(5), crisp(1)),
        FcmVehicle(1, queue_class, crisp(1), crisp(0)),
    )
    st = FcmState(vehicles, 100, "open", step=2)
    assert queue_length(st, [0, 1]) == {}


@hs.composite
def queued_states(draw):
    """Fuzzy states with one start cell per vehicle.  A start cell may lie
    outside its position support, and a velocity may have no 0 in its
    support.  Step 1, so positions need not keep their initial order."""
    vclass = VehicleClass("c", crisp(0), make_fuzzy([(3, 1.0), (4, 0.4)]), crisp(1))
    vehicles, slots = [], []
    for i in range(draw(hs.integers(0, 8))):
        position = draw(fuzzy_ints(min_value=0, max_value=12, max_size=5))
        velocity = draw(fuzzy_ints(min_value=0, max_value=4, max_size=4))
        vehicles.append(FcmVehicle(i, vclass, position, velocity))
        inside = hs.sampled_from(position.values.tolist())
        slots.append(draw(hs.one_of(inside, hs.integers(0, 14))))
    return FcmState(tuple(vehicles), 20, "open", step=1), slots


@settings(max_examples=100, deadline=None)
@given(queued_states())
def test_queue_length_matches_per_vehicle_degrees(case):
    state, slots = case
    assert queue_length(state, slots) == queue_length_reference(state, slots)


def test_queue_length_needs_one_start_cell_per_vehicle(queue_class):
    st = stopped_queue(queue_class, 3, 50)
    with pytest.raises(ValueError):
        queue_length(st, range(4))
    with pytest.raises(ValueError):
        queue_length(st, [0, 1])


def test_argmax_grade():
    assert argmax_grade({50: 1.0}) == 50
    assert argmax_grade({0: 0.8, 1: 0.2, 50: 0.8}) == 0
    assert argmax_grade({}) == 0


def test_queue_series_runs_along_trajectory(queue_class):
    states = iter_states(stopped_queue(queue_class, 5, 60), 4)
    series = [queue_length(state, range(5)) for state in states]
    assert series[0] == {5: 1.0}
    assert len(series) == 5


# ---------------------------------------------------------------------------
# flow


def test_step_flow_empty_road():
    st = FcmState((), 100, "ring")
    assert flow_summary(st, 0.99) == (0, 0, 0)


def test_step_flow_single_top_speed_vehicle():
    cls = VehicleClass("c", crisp(1), crisp(3), crisp(1))
    st = FcmState((FcmVehicle(0, cls, crisp(0), crisp(3)),), 100, "ring")
    assert flow_summary(st, 0.99) == (3, 3, 3)


def test_step_flow_jam_is_zero():
    cls = VehicleClass("c", crisp(1), crisp(3), crisp(1))
    st = ring_state(cls, 10, 10)
    st = step(st)
    assert flow_summary(st, 0.99) == (0, 0, 0)


def test_flow_cut_threshold_must_lie_in_unit_interval(queue_class):
    st = step(stopped_queue(queue_class, 3, 50))
    for theta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            flow_summary(st, theta)
        with pytest.raises(ValueError):
            run_ring(st, 2, theta)


def test_flow_summary_matches_folded_extension_sum():
    rng = np.random.default_rng(9)
    cls = ring_class()
    for _ in range(40):
        st = ring_state(cls, 30, int(rng.integers(2, 12)))
        for _ in range(int(rng.integers(1, 12))):
            st = step(st)
        total = st.vehicles[0].velocity
        for veh in st.vehicles[1:]:
            total = ext_add(total, veh.velocity)
        assert flow_summary(st, 0.99) == (defuzz_argmax(total), *alpha_cut(total, 0.99))


# ---------------------------------------------------------------------------
# diagram sweeps


def test_fd_point_invariant():
    with pytest.raises(ValueError):
        FdPoint(0.5, 0.2, 0.3, 0.4)


def test_sweep_fcm_small():
    cfg = sweep_config("fcm", FdSettings(densities=[0.1, 0.5, 1.0], warmup=10, window=30))
    points = sweep_fundamental_diagram(cfg)
    assert [p.density for p in points] == [0.1, 0.5, 1.0]
    for p in points:
        assert p.flow_cut_low <= p.flow_argmax <= p.flow_cut_high
    assert points[-1].flow_argmax == 0.0  # jam


def test_sweep_nasch_small():
    cfg = sweep_config("nasch", FdSettings(densities=[0.1, 0.5, 1.0], warmup=10, window=30))
    points = sweep_fundamental_diagram(cfg)
    for p in points:
        assert all(prob >= 0.1 for _, prob in p.states)
        total = sum(prob for _, prob in p.states)
        assert total <= 1.0 + 1e-12
    assert points[-1].mean_flow == 0.0
    assert points[-1].states == ((0.0, 1.0),)


def test_sweep_site_count_estimator():
    fd = FdSettings(densities=[0.2], warmup=10, window=30, estimator="site_count")
    (point,) = sweep_fundamental_diagram(sweep_config("nasch", fd))
    assert point.mean_flow > 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("estimator", ["mean_velocity", "site_count"])
def test_nasch_flow_states_match_unique_over_float_samples(monkeypatch, estimator, seed):
    # the flow states are counted over the integer sums; np.unique over the
    # float samples k / road_length (or float(k)) gives the same values,
    # probabilities and mean flow, bit for bit
    rng = np.random.default_rng(seed)
    fd = FdSettings(densities=[0.25], warmup=int(rng.integers(0, 5)),
                    window=int(rng.integers(1, 60)), estimator=estimator, nasch_threshold=0.0)
    cfg = sweep_config("nasch", fd)
    runs, steps, high = cfg.nasch.runs, fd.warmup + fd.window, int(rng.integers(1, 300))
    grids = [rng.integers(0, high, (runs, steps)) for _ in range(2)]
    ens = nasch.NaschEnsemble(runs, steps, np.zeros((runs, steps + 1), dtype=np.int64), *grids)
    monkeypatch.setattr(nasch, "monte_carlo", lambda *args: ens)
    (point,) = sweep_fundamental_diagram(cfg)
    if estimator == "site_count":
        samples = ens.crossings[:, fd.warmup:].astype(np.float64).ravel()
    else:
        samples = (ens.total_velocity[:, fd.warmup:] / cfg.road_length).ravel()
    values, counts = np.unique(samples, return_counts=True)
    assert point.states == tuple(zip(values.tolist(), (counts / samples.size).tolist()))
    assert point.mean_flow == float(samples.mean())


def test_sweep_rejects_bad_density():
    cfg = sweep_config("fcm", FdSettings(warmup=5, window=10))
    with pytest.raises(ScenarioValidationError, match="densities"):
        replace(cfg, fd=replace(cfg.fd, densities=[1.5]))
    with pytest.raises(ValueError, match="no vehicle"):
        sweep_fundamental_diagram(replace(cfg, fd=replace(cfg.fd, densities=[0.001])))
    with pytest.raises(ValueError, match="no densities"):
        sweep_fundamental_diagram(replace(cfg, fd=FdSettings()))


@pytest.mark.parametrize("name", ["ring_fd_fcm", "ring_fd_nasch"])
@pytest.mark.parametrize("warmup, window", [(5, 0), (-5, 30)])
def test_sweep_rejects_bad_window(name, warmup, window):
    # a sweep's window comes from its config, so a bad one is refused
    # when the scenario's diagram settings are replaced
    cfg = load_builtin(name)
    with pytest.raises(ScenarioValidationError, match="scenario.fd: warmup"):
        fd = replace(cfg.fd, densities=[0.2], warmup=warmup, window=window)
        sweep_fundamental_diagram(replace(cfg, fd=fd))


def test_sweep_rejects_open_road():
    for model in ("fcm", "nasch"):
        cfg = sweep_config(model, FdSettings(densities=[0.1]))
        with pytest.raises(ScenarioValidationError, match="ring"):
            sweep_fundamental_diagram(replace(cfg, boundary="open"))


# ---------------------------------------------------------------------------
# ensemble histograms


def test_empirical_distribution_rows_sum_to_one():
    ens = nasch.monte_carlo(queue_state(10, 120), 30, 25, base_seed=8)
    hist = empirical_queue_distribution(ens)
    assert hist.shape == (31, 11)
    assert np.allclose(hist.sum(axis=1), 1.0)
    assert hist[0, 10] == 1.0


def test_single_run_distribution_degenerate():
    ens = nasch.monte_carlo(queue_state(5, 60), 10, 1, base_seed=8)
    hist = empirical_queue_distribution(ens)
    assert set(np.unique(hist)) <= {0.0, 1.0}


def test_modal_series_decreases_to_zero():
    ens = nasch.monte_carlo(queue_state(12, 150), 80, 60, base_seed=123)
    modes = modal_series(empirical_queue_distribution(ens))
    assert modes[0] == 12
    assert modes[-1] == 0


def test_crisp_specialization_matches_baseline_queue(queue_class):
    # all-crisp fuzzy inputs, alpha=1, unit length: the fuzzy queue rule
    # must report exactly the crisp queue counts of the p=0 automaton
    cls = VehicleClass("c", crisp(1), crisp(3), crisp(1))
    fuzzy = FcmState(
        tuple(FcmVehicle(i, cls, crisp(i), crisp(0)) for i in range(12)),
        200,
        "open",
        alpha=1.0,
    )
    baseline = queue_state(12, 200, v_max=3, p=0.0, seed=0)
    start = baseline.positions.copy()
    rng = np.random.default_rng(baseline.rng_seed)
    for _ in range(40):
        fq = queue_length(fuzzy, range(12))
        assert fq == {nasch.queue_length(baseline, start): 1.0}
        fuzzy = step(fuzzy)
        baseline = nasch.nasch_step(baseline, rng)


# ---------------------------------------------------------------------------
# unimodality helper


@pytest.mark.parametrize(
    "seq,ok",
    [
        ([1, 2, 3, 2, 1], True),
        ([1, 2, 3, 3, 2], True),
        ([3, 2, 1], True),
        ([0.1, 0.3, 0.28, 0.31, 0.2, 0.1], True),  # one-point wiggle tolerated
        ([3, 2, 3, 4, 3], True),  # single-point dip on the way up
        ([1, 2, 3, 1, 1, 5, 1], False),  # dip sustained over two points
        ([5, 1, 1, 2], False),  # sustained rebound after the peak
    ],
)
def test_is_unimodal(seq, ok):
    assert is_unimodal(seq) is ok
    assert is_unimodal(seq, tolerance_points=len(seq)) is True
