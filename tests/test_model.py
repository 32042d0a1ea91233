"""Fuzzy traffic model: state invariants, update rules, engine equivalence."""

import itertools
import math
import pickle
import tracemalloc
from dataclasses import replace

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from fuzzycell import model
from fuzzycell import (
    DegenerateClassError,
    FcmState,
    FcmVehicle,
    FuzzyInt,
    VehicleClass,
    advance_position,
    alpha_cut,
    cell_occupancy,
    crisp,
    defuzz_argmax,
    dilation_exponent,
    ext_add,
    ext_min,
    gap,
    make_fuzzy,
    ring_state,
    step,
    stopped_queue,
    trajectory,
    update_velocity,
)
from fuzzycell.fuzznum import _from_dense_rows
from fuzzycell.model import flow_summary, iter_rows, iter_states, run_ring
from fuzzycell.simio import build_fcm_state, load_builtin


def fz(*pairs):
    return make_fuzzy(list(pairs))


def crisp_class(v_max=3, length=1, accel=1, name="car"):
    return VehicleClass(name, crisp(length), crisp(v_max), crisp(accel))


def two_vehicle_state(positions, vclass, road_length=20, boundary="open", **kw):
    vehicles = tuple(
        FcmVehicle(i, vclass, crisp(p), crisp(0)) for i, p in enumerate(positions)
    )
    return FcmState(vehicles, road_length, boundary, **kw)


# ---------------------------------------------------------------------------
# types and invariants


def test_vehicle_class_rejects_negative_support():
    with pytest.raises(ValueError):
        VehicleClass("bad", fz((-1, 1.0)), crisp(3), crisp(1))


def test_vehicle_class_needs_positive_v_max():
    with pytest.raises(ValueError):
        VehicleClass("bad", crisp(1), crisp(0), crisp(1))


def test_vehicle_velocity_bounded_by_class():
    cls = crisp_class(v_max=3)
    with pytest.raises(ValueError):
        FcmVehicle(0, cls, crisp(0), crisp(4))


def test_state_requires_downstream_order():
    cls = crisp_class()
    with pytest.raises(ValueError):
        two_vehicle_state([5, 3], cls)


def test_state_cyclic_order_on_ring():
    cls = crisp_class()
    # rotated but cyclically increasing: fine
    two_vehicle_state([7, 9], cls, road_length=10, boundary="ring")
    vehicles = tuple(FcmVehicle(i, cls, crisp(p), crisp(0)) for i, p in enumerate([7, 2, 9]))
    with pytest.raises(ValueError):
        FcmState(vehicles, 10, "ring")


def test_state_ring_positions_within_road():
    cls = crisp_class()
    with pytest.raises(ValueError):
        two_vehicle_state([3, 12], cls, road_length=10, boundary="ring")


def test_state_parameter_ranges():
    cls = crisp_class()
    with pytest.raises(ValueError):
        two_vehicle_state([1, 2], cls, alpha=1.5)
    with pytest.raises(ValueError):
        two_vehicle_state([1, 2], cls, epsilon=1.0)
    with pytest.raises(ValueError):
        two_vehicle_state([1, 2], cls, boundary="loop")


# ---------------------------------------------------------------------------
# gap


def test_gap_crisp_leader():
    st = two_vehicle_state([3, 5], crisp_class(length=1))
    assert gap(st, 0) == crisp(1)  # 5 - 1 - 3


def test_gap_without_leader_is_v_max(paper_single_class):
    st = two_vehicle_state([3, 5], paper_single_class)
    assert gap(st, 1) == paper_single_class.v_max


def test_gap_filters_pairs_behind():
    cls = crisp_class(length=1)
    leader = FcmVehicle(1, cls, fz((3, 0.3), (4, 1.0)), crisp(0))
    follower = FcmVehicle(0, cls, crisp(3), crisp(0))
    st = FcmState((follower, leader), 20, "open")
    assert gap(st, 0) == crisp(0)  # only the (4, 3) pair passes, 4-1-3 = 0


def test_gap_total_overlap_returns_zero():
    cls = crisp_class(length=0)
    vehicles = (
        FcmVehicle(0, cls, crisp(4), crisp(0)),
        FcmVehicle(1, cls, crisp(4), crisp(1)),
    )
    st = FcmState(vehicles, 20, "open", step=1)  # ordering checked at t=0 only
    assert gap(st, 0) == crisp(0)


def test_gap_clamps_negative_distances():
    cls = crisp_class(length=3)
    st = two_vehicle_state([3, 5], cls)
    assert gap(st, 0) == crisp(0)  # 5 - 3 - 3 = -1, clamped


def test_gap_ring_wraps():
    cls = crisp_class(length=1)
    st = two_vehicle_state([2, 8], cls, road_length=10, boundary="ring")
    assert gap(st, 0) == crisp(5)  # 8 - 1 - 2
    assert gap(st, 1) == crisp(3)  # (2 - 8) mod 10 - 1


def gap_to_all(state, n):
    """Oracle: minimum of the gaps to every other vehicle with a cell ahead.

    The general form of the gap; the model takes only the index successor.
    Vehicles with no support cell ahead of vehicle n add no term, and
    without any term the gap is the class maximum velocity.
    """
    veh = state.vehicles[n]
    terms = []
    for m, other in enumerate(state.vehicles):
        if m == n:
            continue
        deltas = np.subtract.outer(other.position.values, veh.position.values)
        if state.boundary == "ring":
            deltas %= state.road_length
        if (deltas > 0).any():
            pair = FcmState((veh, other), state.road_length, state.boundary, step=1)
            terms.append(gap(pair, 0))
    if not terms:
        return veh.vclass.v_max
    return terms[0] if len(terms) == 1 else ext_min(*terms)


def test_gap_all_mode_matches_successor_on_spread_fleet(queue_class):
    st = stopped_queue(queue_class, 8, 100)
    for n in range(8):
        assert gap(st, n) == gap_to_all(st, n)


def test_gap_all_mode_without_candidates_returns_v_max(paper_single_class):
    vehicles = (FcmVehicle(0, paper_single_class, crisp(3), crisp(0)),)
    st = FcmState(vehicles, 20, "open")
    assert gap_to_all(st, 0) == paper_single_class.v_max


def gap_reference(state, n):
    """Per-pair oracle of the gap: every (leader value, own value, leader
    length) triple with the leader value strictly ahead gives max(d - l, 0)
    at the smallest of its three grades; values merge by max."""
    count = len(state.vehicles)
    if state.boundary == "ring":
        lead = (n + 1) % count if count > 1 else None
    else:
        lead = n + 1 if n + 1 < count else None
    veh = state.vehicles[n]
    if lead is None:
        return veh.vclass.v_max.to_pairs()
    leader = state.vehicles[lead]
    best = {}
    for x, gx in leader.position.to_pairs():
        for y, gy in veh.position.to_pairs():
            d = (x - y) % state.road_length if state.boundary == "ring" else x - y
            if d <= 0:
                continue
            for length, gl in leader.vclass.length.to_pairs():
                z = max(d - length, 0)
                best[z] = max(best.get(z, 0.0), min(gx, gy, gl))
    return sorted(best.items()) or [(0, 1.0)]


def _subnormal_pair():
    # the follower's only value, 5, is ahead of the leader's grade-1 value 4,
    # so the gap keeps only pairs graded 0.5 and 0.3: {0.5/0; 0.5/1; 0.3/2; 0.3/3}
    cls = VehicleClass("c", fz((0, 1.0), (1, 0.6)), crisp(3), crisp(1))
    follower = FcmVehicle(0, cls, crisp(5), crisp(0))
    leader = FcmVehicle(1, cls, fz((4, 1.0), (6, 0.5), (8, 0.3)), crisp(0))
    return FcmState((follower, leader), 50, "open", alpha=0.9, step=1)


def test_gap_is_subnormal_when_the_filter_drops_every_grade_one_pair():
    st = _subnormal_pair()
    got = gap(st, 0)
    assert got.to_pairs() == [(0, 0.5), (1, 0.5), (2, 0.3), (3, 0.3)]
    assert not got.is_normal
    # the update propagates it: the velocity and then the position are sub-normal
    nxt = step(st)
    assert nxt.vehicles[0].velocity.to_pairs() == [(0, 0.5), (1, 0.5)]
    assert not nxt.vehicles[0].velocity.is_normal
    assert not nxt.vehicles[0].position.is_normal
    assert nxt.vehicles[1].velocity.is_normal


@hs.composite
def _overlapping_fleets(draw):
    """1-4 vehicles on a short open or ring road with arbitrary, possibly
    overlapping or out-of-order position supports (a state after step 0),
    and class lengths of one to three values."""
    boundary = draw(hs.sampled_from(["open", "ring"]))
    road = draw(hs.integers(2, 14))
    high = road - 1 if boundary == "ring" else road + 3

    def normal_set(top, max_size):
        values = sorted(draw(hs.sets(hs.integers(0, top), min_size=1, max_size=max_size)))
        grades = [draw(hs.floats(0.05, 1.0)) for _ in values]
        grades[draw(hs.integers(0, len(values) - 1))] = 1.0
        return make_fuzzy(list(zip(values, grades)))

    classes = [VehicleClass("c", normal_set(3, 3), crisp(3), crisp(1))
               for _ in range(draw(hs.integers(1, 2)))]
    vehicles = tuple(
        FcmVehicle(i, draw(hs.sampled_from(classes)), normal_set(high, 4), crisp(0))
        for i in range(draw(hs.integers(1, 4)))
    )
    return FcmState(vehicles, road, boundary, step=1)


@settings(max_examples=80, deadline=None)
@given(_overlapping_fleets())
@example(_subnormal_pair())
def test_gap_matches_per_pair_reference(st):
    for n in range(len(st.vehicles)):
        got = gap(st, n)
        assert got.to_pairs() == gap_reference(st, n)
        assert got.values.dtype == np.int64
        assert not got.values.flags.writeable and not got.grades.flags.writeable


# ---------------------------------------------------------------------------
# dilation exponent


def test_dilation_exponent_values(paper_single_class):
    v_max = paper_single_class.v_max
    assert dilation_exponent(crisp(0), v_max, 0.9) == 0.9
    assert dilation_exponent(crisp(5), v_max, 0.9) == 1.0
    assert dilation_exponent(crisp(1), v_max, 0.9) == pytest.approx(0.92, abs=1e-12)


def test_dilation_exponent_exact_one_at_top_speed():
    for alpha in (0.0, 0.1, 0.37, 0.9):
        assert dilation_exponent(crisp(4), crisp(4), alpha) == 1.0


def test_dilation_exponent_degenerate_class():
    with pytest.raises(DegenerateClassError):
        dilation_exponent(crisp(0), fz((0, 1.0), (2, 0.4)), 0.9)


def test_dilation_exponent_floor_at_alpha_zero():
    e = dilation_exponent(crisp(0), crisp(3), 0.0)
    assert 0.0 < e <= 1e-9


# ---------------------------------------------------------------------------
# velocity and position updates


def test_update_velocity_stopped_single_vehicle(paper_single_class):
    st = FcmState(
        (FcmVehicle(0, paper_single_class, crisp(0), crisp(0)),), 180, "open"
    )
    assert update_velocity(st, 0).to_pairs() == [(0, 0.2), (1, 1.0), (2, 0.2)]


def test_update_velocity_crisp_chain():
    cls = VehicleClass("c", crisp(1), crisp(3), crisp(1))
    vehicles = (
        FcmVehicle(0, cls, crisp(0), crisp(2)),
        FcmVehicle(1, cls, crisp(2), crisp(0)),
    )
    st = FcmState(vehicles, 30, "open")
    assert update_velocity(st, 0) == crisp(1)  # min(2+1, gap 1, 3)


def test_update_velocity_zero_absorbing():
    cls = VehicleClass("sluggish", crisp(0), crisp(3), crisp(0))
    st = FcmState((FcmVehicle(0, cls, crisp(0), crisp(0)),), 30, "open")
    assert update_velocity(st, 0) == crisp(0)  # 0 + 0 absorbs under min


def test_advance_position_dilates(paper_single_class):
    got = advance_position(crisp(0), fz((0, 0.2), (1, 1.0), (2, 0.2)), 0.92, 0.01)
    expected = math.pow(0.2, 0.92)
    assert got.values.tolist() == [0, 1, 2]
    assert got.grade(0) == pytest.approx(expected, abs=1e-12)
    assert got.grade(1) == 1.0


def test_advance_position_crisp():
    assert advance_position(crisp(4), crisp(3), 1.0, 0.01) == crisp(7)
    assert advance_position(crisp(0), crisp(0), 0.5, 0.01) == crisp(0)


def test_advance_position_ring_wrap():
    got = advance_position(fz((8, 1.0), (9, 0.5)), crisp(3), 1.0, 0.01, modulus=10)
    assert got.to_pairs() == [(1, 1.0), (2, 0.5)]


# ---------------------------------------------------------------------------
# engine step


def test_step_single_vehicle_first_update(paper_single_class):
    st = FcmState((FcmVehicle(0, paper_single_class, crisp(0), crisp(0)),), 180, "open", alpha=0.9)
    nxt = step(st)
    veh = nxt.vehicles[0]
    assert veh.velocity.to_pairs() == [(0, 0.2), (1, 1.0), (2, 0.2)]
    expected = math.pow(0.2, 0.92)
    assert veh.position.values.tolist() == [0, 1, 2]
    assert veh.position.grade(0) == pytest.approx(expected, abs=1e-12)
    assert veh.position.grade(1) == 1.0
    assert nxt.step == 1


def test_step_empty_road():
    st = FcmState((), 10, "open")
    nxt = step(st)
    assert nxt.step == 1 and nxt.vehicles == ()


def _random_fuzzy_states(rng, boundary, count=5, road=30):
    cls = VehicleClass(
        "mixed",
        fz((0, 1.0), (1, 0.3)),
        fz((2, 0.2), (3, 1.0), (4, 0.2)),
        fz((0, 0.2), (1, 1.0), (2, 0.2)),
    )
    base = sorted(rng.choice(road, size=count, replace=False).tolist())
    vehicles = []
    for i, p in enumerate(base):
        support = {p: 1.0}
        if p + 1 < road and rng.random() < 0.7:
            support.setdefault(p + 1, round(float(rng.uniform(0.1, 0.9)), 3))
        if p >= 1 and rng.random() < 0.5:
            support.setdefault(p - 1, 0.3)
        vehicles.append(
            FcmVehicle(i, cls, make_fuzzy(sorted(support.items())), fz((0, 1.0), (1, 0.4)))
        )
    try:
        return FcmState(tuple(vehicles), road, boundary, alpha=0.85, epsilon=0.01)
    except ValueError:
        return None


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_step_equals_composed_reference_ops(boundary):
    # fuzz several states forward, then check one engine step against the
    # published per-vehicle operations; order of evaluation cannot matter
    # because everything reads the same snapshot
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(25):
        st = _random_fuzzy_states(rng, boundary)
        if st is None:
            continue
        for _ in range(6):
            st = step(st)
        assert step(st) == model.reference_step(st)
        checked += len(st.vehicles)
    assert checked > 50


def test_step_equals_reference_ops_on_subnormal_singleton():
    # a leader core behind its follower (reachable only after step 0)
    # leaves the follower a sub-normal gap {0.5/1}; its position {0.5/6}
    # is a one-value set that the dilation must still raise
    cls = VehicleClass("c", crisp(0), crisp(3), crisp(1))
    follower = FcmVehicle(0, cls, crisp(5), crisp(0))
    leader = FcmVehicle(1, cls, fz((4, 1.0), (6, 0.5)), crisp(0))
    st = FcmState((follower, leader), 50, "open", alpha=0.9, step=1)
    ref = model.reference_step(st)
    p_ref = ref.vehicles[0].position
    assert p_ref.values.tolist() == [6] and p_ref.grade(6) > 0.5
    assert step(st) == ref


def test_capped_gap_preserves_velocity(queue_class):
    # the engine caps every gap at the largest v_max support value of the
    # fleet, above the slow class's own maximum here; the velocities must
    # equal those the reference rule derives from the uncapped gap
    slow = VehicleClass("slow", crisp(1), fz((1, 0.4), (2, 1.0)), queue_class.accel)
    st = FcmState(
        tuple(
            FcmVehicle(i, queue_class if i % 2 else slow, crisp(3 * i), crisp(0))
            for i in range(12)
        ),
        400,
        "open",
    )
    for _ in range(60):
        nxt = step(st)
        for i in range(12):
            assert nxt.vehicles[i].velocity == update_velocity(st, i)
        st = nxt


def test_run_ring_batched_matches_generic(queue_class):
    ring_cls = VehicleClass("ring", crisp(1), queue_class.v_max, queue_class.accel)
    for count in (2, 7, 19):
        st = ring_state(ring_cls, 40, count)
        for horizon in (1, 9, 40):
            batched, flows = run_ring(st, horizon, theta=0.99)
            reference = st
            series = []
            for _ in range(horizon):
                reference = step(reference)
                s_hat = sum(defuzz_argmax(v.velocity) for v in reference.vehicles)
                s_lo = sum(alpha_cut(v.velocity, 0.99)[0] for v in reference.vehicles)
                s_hi = sum(alpha_cut(v.velocity, 0.99)[1] for v in reference.vehicles)
                series.append((s_hat, s_lo, s_hi))
            assert batched.step == reference.step
            for a, b in zip(batched.vehicles, reference.vehicles):
                assert a.position == b.position
                assert a.velocity == b.velocity
            assert flows == series


def test_run_ring_matches_step_on_open_roads(queue_class):
    st = stopped_queue(queue_class, 4, 60)
    final, flows = run_ring(st, 5, theta=0.99)
    reference = st
    for _ in range(5):
        reference = step(reference)
    for a, b in zip(final.vehicles, reference.vehicles):
        assert a.position == b.position and a.velocity == b.velocity
    assert len(flows) == 5


def test_step_of_an_earlier_state_is_unchanged(queue_class):
    # a stepped state carries its fleet tables, and every step rebuilds
    # the rows from its own state's sets; an earlier state, or one stepped
    # after another road, must not see a later state's rows
    first = stopped_queue(queue_class, 5, 80)
    second = step(first)
    third = step(second)
    step(ring_state(queue_class, 30, 4))
    assert step(second) == third
    assert step(first) == second


def test_run_ring_never_calls_step(monkeypatch, queue_class):
    def forbidden(state):
        raise AssertionError("run_ring went through model.step")

    monkeypatch.setattr(model, "step", forbidden)
    for st in (ring_state(queue_class, 30, 6), stopped_queue(queue_class, 4, 60)):
        final, flows = run_ring(st, 5, theta=0.99)
        assert final.step == 5 and len(flows) == 5


# ---------------------------------------------------------------------------
# differential properties: the engine against the reference operations


@hs.composite
def _fuzzy_around(draw, core, low, high, modulus=None):
    """A normal fuzzy set with grade 1 at ``core`` only, values in [low, high]."""
    support = {core: 1.0}
    for offset in draw(hs.lists(hs.integers(-2, 2), max_size=3)):
        value = core + offset
        if modulus is not None:
            value %= modulus
        if low <= value <= high and value not in support:
            support[value] = draw(hs.floats(0.05, 0.99))
    return make_fuzzy(sorted(support.items()))


@hs.composite
def _vehicle_classes(draw):
    def param(low, high):
        core = draw(hs.integers(low, high))
        return draw(_fuzzy_around(core, low, high))

    return VehicleClass("c", param(0, 3), param(1, 6), param(0, 3))


@hs.composite
def fleets(draw, boundaries=("open", "ring"), max_road=30):
    """Valid step-0 states: 1-10 vehicles of up to 3 classes, fuzzy
    positions and velocities, open or ring roads (short rings included,
    where the largest speed plus length reaches around the ring)."""
    boundary = draw(hs.sampled_from(boundaries))
    count = draw(hs.integers(1, min(10, max_road)))
    road = draw(hs.integers(count, max_road))
    classes = draw(hs.lists(_vehicle_classes(), min_size=1, max_size=3))
    cores = sorted(draw(hs.sets(hs.integers(0, road - 1), min_size=count, max_size=count)))
    modulus = road if boundary == "ring" else None
    vehicles = []
    for i, core in enumerate(cores):
        vclass = draw(hs.sampled_from(classes))
        top = int(vclass.v_max.values[-1])
        position = draw(_fuzzy_around(core, 0, road - 1 if modulus else road + 2, modulus))
        velocity = draw(_fuzzy_around(draw(hs.integers(0, top)), 0, top))
        vehicles.append(FcmVehicle(i, vclass, position, velocity))
    alpha = draw(hs.floats(0.0, 1.0))
    epsilon = draw(hs.floats(0.0, 0.5, exclude_max=True))
    return FcmState(tuple(vehicles), road, boundary, alpha, epsilon)


def _long_leader_fleet(boundary):
    """Two vehicles whose leader length {0.3/0; 1/2; 0.5/3} spans several
    values, on 6 cells, where cap 4 + length 3 reaches around a ring: the
    gap clamps at 0 (distances up to the length) and at cap (distance 5
    past length 0)."""
    cls = VehicleClass("long", fz((0, 0.3), (2, 1.0), (3, 0.5)), fz((2, 0.4), (4, 1.0)),
                       fz((0, 0.3), (1, 1.0), (2, 0.6)))
    vehicles = (
        FcmVehicle(0, cls, fz((0, 1.0), (1, 0.6)), fz((1, 1.0), (2, 0.5))),
        FcmVehicle(1, cls, fz((4, 0.5), (5, 1.0)), fz((0, 0.7), (3, 1.0))),
    )
    return FcmState(vehicles, 6, boundary, alpha=0.6, epsilon=0.05)


def _equal_distinct_classes_fleet():
    """Two equal but distinct class objects, interleaved with a third
    class: the engine indexes classes by identity, in order of first use."""
    def car():
        return VehicleClass("car", fz((0, 1.0), (1, 0.4)), fz((2, 0.3), (3, 1.0)),
                            fz((0, 0.2), (1, 1.0)))
    first, second = car(), car()
    assert first == second and first is not second
    truck = VehicleClass("truck", crisp(2), fz((1, 0.5), (2, 1.0)), crisp(1))
    kinds = (first, second, truck, first, truck, second)
    vehicles = tuple(
        FcmVehicle(i, c, fz((3 * i, 1.0), (3 * i + 1, 0.5)), fz((0, 0.6), (1, 1.0)))
        for i, c in enumerate(kinds)
    )
    return FcmState(vehicles, 20, "ring", alpha=0.8, epsilon=0.01)


def velocity_sums(state, theta):
    """Oracle for flow summaries: sums of defuzzified values and cut bounds,
    a sub-normal velocity cut at its maximal grade."""
    s_hat = s_lo = s_hi = 0
    for veh in state.vehicles:
        v = veh.velocity
        lo, hi = alpha_cut(v, min(theta, float(v.grades.max())))
        s_hat += defuzz_argmax(v)
        s_lo += lo
        s_hi += hi
    return s_hat, s_lo, s_hi


@settings(max_examples=300, deadline=None)
@given(fleets())
@example(_long_leader_fleet("ring"))
@example(_long_leader_fleet("open"))
@example(_equal_distinct_classes_fleet())
def test_engine_step_matches_composed_reference_ops(st):
    assert step(st) == model.reference_step(st)


@settings(max_examples=25, deadline=None)
@given(fleets(), hs.integers(1, 6))
@example(_subnormal_pair(), 6)
def test_multi_step_runs_keep_the_invariants(st, k):
    for _ in range(k):
        nxt = step(st)
        assert nxt == model.reference_step(st)
        for veh in nxt.vehicles:
            assert veh.position.values[0] >= 0 and veh.velocity.values[0] >= 0
            if st.boundary == "ring":
                assert veh.position.values[-1] < st.road_length
            assert veh.velocity.values[-1] <= veh.vclass.v_max.values[-1]
        st = nxt


@settings(max_examples=60, deadline=None)
@given(fleets(), hs.integers(1, 12), hs.floats(0.05, 1.0))
def test_run_ring_matches_repeated_step(st, steps, theta):
    final, flows = run_ring(st, steps, theta)
    reference = st
    expected = []
    for _ in range(steps):
        reference = step(reference)
        expected.append(velocity_sums(reference, theta))
        assert flow_summary(reference, theta) == expected[-1]
    assert final.step == reference.step
    for a, b in zip(final.vehicles, reference.vehicles):
        assert a.position == b.position
        assert a.velocity == b.velocity
    assert flows == expected


# ---------------------------------------------------------------------------
# ring symmetries, long runs and cycle skipping

# the class of the bundled ring_fd_fcm scenario
RING_CAR = VehicleClass(
    "car", crisp(1), fz((2, 0.2), (3, 1.0), (4, 0.2)), fz((0, 0.2), (1, 1.0), (2, 0.2))
)


def rotated(state, k):
    """The ring state with every position moved k cells downstream."""

    def moved(p):
        values = (p.values + k) % state.road_length
        order = np.argsort(values)
        return FuzzyInt._from_arrays(values[order], p.grades[order])

    vehicles = tuple(replace(v, position=moved(v.position)) for v in state.vehicles)
    return replace(state, vehicles=vehicles)


def relabelled(state, r):
    """Vehicle i takes the position and velocity of vehicle i - r."""
    vs = state.vehicles
    return replace(state, vehicles=tuple(
        replace(v, position=vs[i - r].position, velocity=vs[i - r].velocity)
        for i, v in enumerate(vs)
    ))


def stepped(state, steps, theta=None):
    """``steps`` calls of step: the last state and, unless theta is None,
    the flow summary after each call."""
    flows = None if theta is None else []
    for _ in range(steps):
        state = step(state)
        if flows is not None:
            flows.append(flow_summary(state, theta))
    return state, flows


def _alternating_ring():
    # two classes, alternating: relabelling by 2 or 4 keeps them
    classes = (RING_CAR, crisp_class())
    vehicles = tuple(
        FcmVehicle(i, classes[i % 2], fz((2 * i, 1.0), (2 * i + 1, 0.4)), crisp(i % 3))
        for i in range(6)
    )
    return FcmState(vehicles, 12, "ring", 0.5, 0.05)


@settings(max_examples=150, deadline=None)
@given(fleets(boundaries=("ring",)), hs.integers(0, 29))
def test_step_commutes_with_rotation(st, k):
    assert step(rotated(st, k)) == rotated(step(st), k)


@settings(max_examples=150, deadline=None)
@given(fleets(boundaries=("ring",)), hs.integers(0, 8))
@example(_alternating_ring(), 0)
@example(_alternating_ring(), 1)
def test_step_commutes_with_relabelling(st, pick):
    vs = st.vehicles
    shifts = [
        r for r in range(1, len(vs)) if all(v.vclass is vs[i - r].vclass for i, v in enumerate(vs))
    ]
    assume(shifts)
    r = shifts[pick % len(shifts)]
    assert step(relabelled(st, r)) == relabelled(step(st), r)


@settings(max_examples=60, deadline=None)
@given(fleets(boundaries=("ring",), max_road=12), hs.integers(3, 80), hs.floats(0.05, 1.0))
@example(ring_state(RING_CAR, 8, 2), 80, 0.99)  # repeats from update 4
@example(ring_state(RING_CAR, 4, 2, alpha=0.0), 80, 0.5)  # stands still from update 36
@example(ring_state(RING_CAR, 6, 2), 80, 0.99)  # grades still change at update 80
@example(ring_state(crisp_class(), 7, 4), 80, 0.5)  # each update relabels by 3, rotates by 6
@example(ring_state(RING_CAR, 9, 4), 33, 0.5)  # one update past a batch of flow sums
def test_run_ring_matches_repeated_step_over_long_horizons(st, steps, theta):
    assert run_ring(st, steps, theta) == stepped(st, steps, theta)


def test_ring_run_memory_does_not_grow_with_steps():
    # A jam of 93 vehicles, which repeats from update 341: a run holds
    # the current rows and at most _KEYS_KEPT keys, not a history of
    # states.  theta is None, so no flows list is returned; one update's
    # own peak (gap and shift temporaries) is the baseline.
    st = ring_state(RING_CAR, 100, 93)

    def peak(steps):
        tracemalloc.start()
        try:
            run_ring(st, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(1)
    extra = {steps: peak(steps) - base for steps in (600, 1500)}
    assert extra[600] < 2**20 and extra[1500] < 2**20
    assert extra[1500] <= extra[600] + 2**16


@settings(max_examples=60, deadline=None)
@given(fleets(boundaries=("ring",), max_road=12), hs.integers(3, 40), hs.integers(1, 4))
@example(ring_state(RING_CAR, 8, 2), 40, 1)
@example(ring_state(crisp_class(), 7, 4), 40, 1)
@example(_alternating_ring(), 40, 1)
def test_run_ring_is_exact_whatever_the_key_nominates(st, steps, key_period):
    # key_period 1 is a constant key, so every update nominates period 1;
    # only the exact comparison decides
    keys = itertools.count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_ring_key", lambda pos: next(keys) % key_period)
        got = run_ring(st, steps, 0.5)
    assert got == stepped(st, steps, 0.5)


def counting_updates(monkeypatch, update=None):
    """Count the calls of model._update, made through ``update``."""
    calls = []
    update = update or model._update
    monkeypatch.setattr(model, "_update", lambda *a: calls.append(1) or update(*a))
    return calls


@pytest.mark.parametrize("count, simulated", [
    (7, 28), (8, 28), (23, 37), (28, 600), (90, 343), (94, 342),
])
def test_ring_fd_runs_simulate_only_until_they_repeat(monkeypatch, count, simulated):
    # ring_fd_fcm's settings: the low, critical and jam counts that the
    # benchmark's ring_fd inputs (8, 23, 94) and (7, 28, 90) sweep
    cfg = load_builtin("ring_fd_fcm")
    st = ring_state(cfg.classes[0], cfg.road_length, count, cfg.alpha, cfg.epsilon)
    calls = counting_updates(monkeypatch)
    _, flows = run_ring(st, cfg.fd.warmup + cfg.fd.window, cfg.fd.theta)
    assert len(calls) == simulated and len(flows) == 600


def test_only_a_ring_run_watches_for_repeats(monkeypatch, queue_class):
    def forbidden(kind):
        raise AssertionError("a watcher was built")

    calls = counting_updates(monkeypatch)
    monkeypatch.setattr(model, "_Repeats", forbidden)
    ring, road = ring_state(queue_class, 30, 6), stopped_queue(queue_class, 4, 60)
    state = ring
    for _ in range(40):
        state = step(state)
    for _ in iter_rows(ring, 40):
        pass
    run_ring(road, 40, theta=0.99)
    run_ring(ring, 2, theta=0.99)  # too short to confirm a repeat
    assert len(calls) == 3 * 40 + 2


def cycling_update(fleet, pos, origin, vel, relabel=1):
    """A stand-in update that commutes with rotation and relabelling:
    every row moves one cell on and ``relabel`` vehicles up, and every
    grade steps 1 -> 0.3 -> 0.6 -> 1, so the state repeats every 3
    updates up to a relabelling by 3 * relabel and a rotation by 3, with
    flows that vary."""

    def cycled(rows):
        out = rows.copy()
        for old, new in ((1.0, 0.3), (0.3, 0.6), (0.6, 1.0)):
            out[rows == old] = new
        return out

    return (np.roll(cycled(pos), (relabel, 1), axis=(0, 1)), origin,
            np.roll(cycled(vel), relabel, axis=0))


@pytest.mark.parametrize("steps, simulated", [(50, 8), (51, 9), (52, 7)])
def test_skip_fills_flows_and_rolls_rows_over_a_period_of_3(monkeypatch, steps, simulated):
    # confirmed at update 7 with period 3, which does not divide the
    # flow batch: the cut at update 7, 8 or 9 falls inside the first batch
    vehicles = tuple(
        FcmVehicle(i, RING_CAR, crisp(3 * i), fz((0, 1.0), (1, 0.3))) for i in range(4)
    )
    st = FcmState(vehicles, 20, "ring")
    calls = counting_updates(monkeypatch, cycling_update)
    got = run_ring(st, steps, theta=0.5)
    assert len(calls) == simulated
    assert len(set(got[1][-3:])) > 1
    assert got == stepped(st, steps, theta=0.5)


@pytest.mark.parametrize("classes, simulated", [("AA", 9), ("AB", 60)])
def test_ring_run_never_relabels_across_classes(monkeypatch, classes, simulated):
    # Each stand-in update relabels by 1, and the two rows differ in
    # shape, so no rotation alone maps one onto the other.  With one
    # class the state after update t is the one after t - 3 relabelled by
    # 3 = 1 (mod 2), and the run skips; with two classes that relabelling
    # swaps them, the nominated period stays 3 and no repeat is confirmed.
    kinds = {"A": RING_CAR, "B": crisp_class()}
    vehicles = tuple(
        FcmVehicle(i, kinds[c], fz((5 * i, 1.0), (5 * i + 1 + i, 0.3)), crisp(0))
        for i, c in enumerate(classes)
    )
    st = FcmState(vehicles, 10, "ring")
    calls = counting_updates(monkeypatch, cycling_update)
    got = run_ring(st, 60, theta=0.5)
    assert len(calls) == simulated
    assert got == stepped(st, 60, theta=0.5)


def test_symmetry_allows_only_relabellings_that_keep_the_classes():
    # the later rows are the earlier ones relabelled by 1 and rotated by
    # 1 cell; no rotation alone maps one onto the other
    earlier = np.array([[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 1.0, 0.5, 0]])
    later = np.roll(earlier, (1, 1), axis=(0, 1))
    vel = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert model._symmetry(np.array([0, 0]), (earlier, 0, vel), (later, 0, vel)) == (1, 1)
    assert model._symmetry(np.array([0, 1]), (earlier, 0, vel), (later, 0, vel)) is None


def test_a_skipped_run_carries_its_fleet_and_replace_drops_it(monkeypatch):
    calls = counting_updates(monkeypatch)
    final, _ = run_ring(ring_state(RING_CAR, 100, 94), 600)  # a jam: slow vehicles
    assert len(calls) < 600
    assert step(final) == step(replace(final))  # the copy builds its own fleet
    # a replaced alpha and epsilon must not step with the carried tables
    fresh = FcmState(final.vehicles, final.road_length, "ring", 0.3, 0.2, final.step)
    assert step(fresh).vehicles != step(final).vehicles
    changed = replace(final, alpha=0.3, epsilon=0.2)
    assert step(changed) == step(fresh) == model.reference_step(fresh)


def test_chained_steps_build_the_fleet_once(monkeypatch):
    builds = []
    fleet = model._Fleet
    monkeypatch.setattr(model, "_Fleet", lambda state: builds.append(state) or fleet(state))
    state = build_fcm_state(load_builtin("queue50"))
    for _ in range(5):
        state = step(state)
    assert len(builds) == 1


def test_pickled_states_step_as_their_originals():
    # a stepped state pickles its fleet tables too; states that share
    # them store them once
    states = [build_fcm_state(load_builtin("queue50"))]
    for _ in range(4):
        states.append(step(states[-1]))
    loaded = pickle.loads(pickle.dumps(states))
    assert loaded == states
    assert loaded[1]._fleet is loaded[-1]._fleet
    for copy, original in zip(loaded, states):
        assert step(copy) == step(original)


def _tiny_ring():
    # cap + leader length (4 + 2) reaches around the 3-cell ring twice
    cls = VehicleClass("c", fz((1, 1.0), (2, 0.5)), fz((2, 0.4), (4, 1.0)), fz((0, 0.3), (2, 1.0)))
    vehicles = (FcmVehicle(0, cls, fz((0, 1.0), (2, 0.6)), crisp(0)),
                FcmVehicle(1, cls, crisp(1), fz((0, 0.2), (3, 1.0))))
    return FcmState(vehicles, 3, "ring", 0.3, 0.1)


@settings(max_examples=100, deadline=None)
@given(fleets(), hs.integers(0, 10))
@example(FcmState((), 12, "open"), 3)
@example(FcmState((), 5, "ring"), 0)
@example(_tiny_ring(), 0)
@example(_tiny_ring(), 8)
def test_iter_rows_matches_repeated_step(st, steps):
    reference = st
    yielded = 0
    for t, (pos, origin, vel) in enumerate(iter_rows(st, steps)):
        if t:
            reference = step(reference)
        positions = _from_dense_rows(origin, pos)
        velocities = _from_dense_rows(0, vel)
        assert len(positions) == len(velocities) == len(reference.vehicles)
        for veh, p, v in zip(reference.vehicles, positions, velocities):
            assert p == veh.position and v == veh.velocity
        yielded += 1
    assert yielded == steps + 1


def test_iter_rows_builds_the_fleet_once(monkeypatch):
    builds = []

    class CountingFleet(model._Fleet):
        def __init__(self, state):
            builds.append(state)
            super().__init__(state)

    monkeypatch.setattr(model, "_Fleet", CountingFleet)
    state = build_fcm_state(load_builtin("queue50"))
    for _ in iter_rows(state, 5):
        pass
    assert len(builds) == 1


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_iter_rows_yields_read_only_rows(queue_class, boundary):
    st = stopped_queue(queue_class, 4, 40) if boundary == "open" else ring_state(queue_class, 40, 4)
    for pos, _, vel in iter_rows(st, 3):
        with pytest.raises(ValueError):
            pos[0, 0] = 0.5
        with pytest.raises(ValueError):
            vel[0, 0] = 0.5


def test_degenerate_class_raises_at_the_first_update():
    cls = VehicleClass("d", crisp(1), fz((0, 1.0), (2, 0.4)), crisp(1))
    st = FcmState((FcmVehicle(0, cls, crisp(3), crisp(0)),), 20, "open")
    assert trajectory(st, 0) == [st]
    states = iter_states(st, 2)
    assert next(states) is st
    with pytest.raises(DegenerateClassError):
        next(states)


# ---------------------------------------------------------------------------
# trajectory-level properties


def run_single_vehicle(alpha, steps=12, vclass=None):
    cls = vclass or VehicleClass(
        "car",
        crisp(0),
        fz((4, 0.2), (5, 1.0), (6, 0.2)),
        fz((0, 0.2), (1, 1.0), (2, 0.2)),
    )
    st = FcmState((FcmVehicle(0, cls, crisp(0), crisp(0)),), 200, "open", alpha=alpha)
    return trajectory(st, steps)


def test_single_vehicle_width_grows_until_top_speed():
    states = run_single_vehicle(0.9)
    for prev, cur in zip(states, states[1:]):
        v_hat = defuzz_argmax(prev.vehicles[0].velocity)
        if v_hat < 5:
            lo_p, hi_p = prev.vehicles[0].position.support()
            lo_c, hi_c = cur.vehicles[0].position.support()
            assert hi_c - lo_c >= hi_p - lo_p


def test_single_vehicle_no_dilation_at_top_speed():
    states = run_single_vehicle(0.9, steps=10)
    hit_top = False
    for prev, cur in zip(states, states[1:]):
        v_new = update_velocity(prev, 0)
        if defuzz_argmax(v_new) == 5:
            hit_top = True
            raw = ext_add(prev.vehicles[0].position, v_new)
            assert cur.vehicles[0].position == raw  # epsilon cannot bite: grades ~0.2
    assert hit_top


def test_fuzzier_alpha_dominates_gradewise():
    sharp = run_single_vehicle(0.9, steps=15)
    fuzzy = run_single_vehicle(0.1, steps=15)
    for s, f in zip(sharp[1:], fuzzy[1:]):
        ps, pf = s.vehicles[0].position, f.vehicles[0].position
        assert ps.values.tolist() == pf.values.tolist()
        assert np.all(pf.grades >= ps.grades - 1e-15)


def test_positions_and_velocities_stay_normal(queue_class):
    st = stopped_queue(queue_class, 10, 300)
    for s in iter_states(st, 50):
        for veh in s.vehicles:
            assert veh.position.grades.max() == 1.0
            assert veh.velocity.grades.max() == 1.0


def test_defuzzified_positions_monotone_on_open_road(queue_class):
    st = stopped_queue(queue_class, 10, 300)
    prev = [defuzz_argmax(v.position) for v in st.vehicles]
    for s in iter_states(st, 40):
        cur = [defuzz_argmax(v.position) for v in s.vehicles]
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_velocity_support_bound(queue_class):
    st = stopped_queue(queue_class, 8, 300)
    top = int(queue_class.v_max.values[-1])
    for s in iter_states(st, 40):
        for veh in s.vehicles:
            lo, hi = veh.velocity.support()
            assert 0 <= lo and hi <= top


# ---------------------------------------------------------------------------
# occupancy view


def test_cell_occupancy(queue_class):
    vehicles = (
        FcmVehicle(0, queue_class, fz((4, 0.3), (5, 1.0)), crisp(0)),
        FcmVehicle(1, queue_class, fz((4, 0.2), (6, 1.0)), crisp(0)),
    )
    st = FcmState(vehicles, 10, "open")
    assert cell_occupancy(st, 4) == {0: 0.3, 1: 0.2}
    assert cell_occupancy(st, 5) == {0: 1.0}
    assert cell_occupancy(st, 9) == {}
    with pytest.raises(ValueError):
        cell_occupancy(st, 10)


def test_crisp_degeneration_small_case():
    # alpha=1, crisp singletons, unit length: the update is the
    # deterministic cell automaton; spot-check a short open-road run
    cls = crisp_class(v_max=2, length=1, accel=1)
    st = FcmState(
        tuple(FcmVehicle(i, cls, crisp(p), crisp(0)) for i, p in enumerate([0, 1, 5])),
        40,
        "open",
        alpha=1.0,
    )
    expected_positions = [[0, 1, 5], [0, 2, 6], [1, 4, 8], [3, 6, 10]]
    for want in expected_positions:
        assert [defuzz_argmax(v.position) for v in st.vehicles] == want
        for veh in st.vehicles:
            assert veh.position.is_crisp and veh.velocity.is_crisp
        st = step(st)
