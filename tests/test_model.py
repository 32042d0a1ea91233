"""Fuzzy traffic model: state invariants, update rules, engine equivalence."""

import math

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import given, settings

from fuzzycell import model
from fuzzycell import (
    DegenerateClassError,
    FcmState,
    FcmVehicle,
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
from fuzzycell.model import flow_summary, iter_states, run_ring


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
        nxt = step(st)
        modulus = st.road_length if boundary == "ring" else None
        for i, veh in enumerate(st.vehicles):
            v_ref = update_velocity(st, i)
            e_ref = dilation_exponent(v_ref, veh.vclass.v_max, st.alpha)
            p_ref = advance_position(veh.position, v_ref, e_ref, st.epsilon, modulus)
            assert nxt.vehicles[i].velocity == v_ref
            assert nxt.vehicles[i].position == p_ref
            checked += 1
    assert checked > 50


def test_step_equals_reference_ops_on_subnormal_singleton():
    # a leader core behind its follower (reachable only after step 0)
    # leaves the follower a sub-normal gap {0.5/1}; its position {0.5/6}
    # is a one-value set that the dilation must still raise
    cls = VehicleClass("c", crisp(0), crisp(3), crisp(1))
    follower = FcmVehicle(0, cls, crisp(5), crisp(0))
    leader = FcmVehicle(1, cls, fz((4, 1.0), (6, 0.5)), crisp(0))
    st = FcmState((follower, leader), 50, "open", alpha=0.9, step=1)
    v_ref = update_velocity(st, 0)
    e_ref = dilation_exponent(v_ref, cls.v_max, st.alpha)
    p_ref = advance_position(st.vehicles[0].position, v_ref, e_ref, st.epsilon, None)
    assert p_ref.values.tolist() == [6] and p_ref.grade(6) > 0.5
    assert step(st).vehicles[0].position == p_ref


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
    # the engine keeps the dense rows of the state it returned last; an
    # earlier state, or one stepped elsewhere in between, must not see them
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
def fleets(draw):
    """Valid step-0 states: 1-10 vehicles of up to 3 classes, fuzzy
    positions and velocities, open or ring roads (short rings included,
    where the largest speed plus length reaches around the ring)."""
    boundary = draw(hs.sampled_from(["open", "ring"]))
    count = draw(hs.integers(1, 10))
    road = draw(hs.integers(count, 30))
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
def test_engine_step_matches_composed_reference_ops(st):
    nxt = step(st)
    modulus = st.road_length if st.boundary == "ring" else None
    for i, veh in enumerate(st.vehicles):
        v_ref = update_velocity(st, i)
        e_ref = dilation_exponent(v_ref, veh.vclass.v_max, st.alpha)
        p_ref = advance_position(veh.position, v_ref, e_ref, st.epsilon, modulus)
        assert nxt.vehicles[i].velocity == v_ref
        assert nxt.vehicles[i].position == p_ref


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
