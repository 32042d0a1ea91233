"""Fuzzy cellular traffic model: state types, reference ops and the engine.

A single lane is divided into unit cells with discrete time steps.
Every vehicle carries a fuzzy position and a fuzzy velocity; per-class
parameters (length, maximum velocity, acceleration) are fuzzy integers
too.  One step, computed in parallel for all vehicles from the time-t
snapshot:

1. gap: fuzzy count of free cells to the leader, an ahead-filtered
   extension-principle difference clamped at zero,
2. velocity: extension-principle minimum of (previous velocity +
   acceleration), the gap, and the class maximum,
3. dilation exponent from the defuzzified velocity: slow vehicles are
   dilated strongly (the fuzzy counterpart of randomization in
   stochastic cell automata), vehicles at top speed not at all,
4. position: dilated sum of position and new velocity, truncated at the
   configured support grade and wrapped on ring roads.

:func:`gap`, :func:`update_velocity`, :func:`dilation_exponent` and
:func:`advance_position` are the reference per-vehicle operations, and
:func:`reference_step` composes them into one update.  One dense-row
engine computes the same update for a whole open or ring road:
:func:`step` applies it once, :func:`run_ring` many times, and
:func:`iter_rows` yields its grade rows state after state without
building a fuzzy set per step; :func:`iter_states` turns those rows into
states.  The row format stays in this module: :func:`membership_of_rows`
and :func:`queue_length_of_rows` read the space-time row and the fuzzy
queue length straight from the rows.

The engine's per-row tables (``_Fleet``) depend on the classes, the
boundary, alpha and epsilon.  The module keeps no engine state: a state
that :func:`step` or :func:`run_ring` returns carries its tables as a
private attribute, not a dataclass field, so a loop that steps each
returned state builds them once, and ``dataclasses.replace`` drops them.
Each run rebuilds its rows from the state's fuzzy sets.  :func:`iter_rows`
takes its first update through :func:`step`, since benchmarks start
their clock at the first call into the engine.

A ring run stops simulating once the road repeats.  The update commutes
with two symmetries of a ring state: rotating every row by s cells (gap
windows, folds, powers and truncation are all per cell or cyclic) and,
where the class sequence repeats under it, relabelling vehicle i as
i + r (every per-row table is indexed by class, and the leader of i is
i + 1 mod n).  A flow is a sum over the vehicles, so neither changes
it.  Once the state after update t equals the state after update t - p
relabelled by r and rotated by s, the flows repeat with period p, and
the state k * p updates later is the one after t relabelled by k * r
and rotated by k * s.  :func:`run_ring` then simulates only the part
lap that is left, repeats the last p flows and rolls the last simulated
rows.  A key of each state only nominates p; exact equality of the rows
confirms it, so the result equals stepping every update, bit for bit.
Only :func:`run_ring` on a ring of more than two updates looks for a
repeat: :func:`step`, :func:`iter_rows` and open roads never do.

On an open road the supports widen without bound, and this is model
behaviour.  A class whose acceleration has a grade at 0 (``queue50``:
0.2) keeps a grade at velocity 0 in every velocity support, so each
position support keeps reaching back to the vehicle's start cell while
its front moves on.  The ``queue50`` rows widen from 50 columns to 1648
over 400 updates, and every support still begins at its start cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fuzznum import (
    FuzzyInt,
    _dense_rows,
    _from_dense_rows,
    crisp,
    defuzz_argmax,
    dilate,
    ext_add,
    ext_min,
    truncate,
    wrap_mod,
)

__all__ = [
    "DegenerateClassError",
    "VehicleClass",
    "FcmVehicle",
    "FcmState",
    "gap",
    "dilation_exponent",
    "update_velocity",
    "advance_position",
    "reference_step",
    "step",
    "flow_summary",
    "cell_occupancy",
    "trajectory",
    "iter_states",
    "iter_rows",
    "membership_of_rows",
    "queue_length_of_rows",
    "ring_state",
    "stopped_queue",
]

BOUNDARIES = ("open", "ring")

# Floor for the dilation exponent when alpha = 0 and the defuzzified
# velocity is 0 would otherwise drive it to the excluded value 0.
_EXPONENT_FLOOR = 1e-9


class DegenerateClassError(ValueError):
    """Raised when a class's defuzzified maximum velocity is zero."""


@dataclass(frozen=True)
class VehicleClass:
    """Per-class fuzzy vehicle parameters (cells and cells/step units)."""

    name: str
    length: FuzzyInt
    v_max: FuzzyInt
    accel: FuzzyInt

    def __post_init__(self):
        for attr in ("length", "v_max", "accel"):
            f: FuzzyInt = getattr(self, attr)
            if int(f.values[0]) < 0:
                raise ValueError(f"class {self.name!r}: {attr} support must be non-negative")
        if int(self.v_max.values[-1]) <= 0:
            raise ValueError(f"class {self.name!r}: v_max needs a positive support value")


@dataclass(frozen=True)
class FcmVehicle:
    """One vehicle: stable index, class reference, fuzzy position/velocity."""

    index: int
    vclass: VehicleClass
    position: FuzzyInt
    velocity: FuzzyInt

    def __post_init__(self):
        if int(self.position.values[0]) < 0:
            raise ValueError(f"vehicle {self.index}: position support must be non-negative")
        if int(self.velocity.values[0]) < 0:
            raise ValueError(f"vehicle {self.index}: velocity support must be non-negative")
        if int(self.velocity.values[-1]) > int(self.vclass.v_max.values[-1]):
            raise ValueError(
                f"vehicle {self.index}: velocity support exceeds the class maximum"
            )


@dataclass(frozen=True)
class FcmState:
    """Immutable road snapshot at one time step.

    Vehicles are ordered by increasing downstream index; the index
    successor is the leader (cyclically on a ring).
    """

    vehicles: tuple[FcmVehicle, ...]
    road_length: int
    boundary: str = "open"
    alpha: float = 0.9
    epsilon: float = 0.01
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        if self.road_length < 1:
            raise ValueError("road_length must be at least 1")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        indexes = [v.index for v in self.vehicles]
        if len(set(indexes)) != len(indexes):
            raise ValueError("vehicle indexes must be unique")
        if self.boundary == "ring":
            for v in self.vehicles:
                if int(v.position.values[-1]) >= self.road_length:
                    raise ValueError(
                        f"vehicle {v.index}: ring position support must stay below "
                        f"road_length {self.road_length}"
                    )
        if self.step == 0 and len(self.vehicles) > 1:
            marks = [defuzz_argmax(v.position) for v in self.vehicles]
            if self.boundary == "open":
                ordered = all(a < b for a, b in zip(marks, marks[1:]))
            else:
                descents = sum(
                    marks[(i + 1) % len(marks)] <= marks[i] for i in range(len(marks))
                )
                ordered = descents <= 1 and len(set(marks)) == len(marks)
            if not ordered:
                raise ValueError("initial positions must increase downstream with index")


def _leader_index(state: FcmState, n: int) -> int | None:
    count = len(state.vehicles)
    if state.boundary == "ring":
        return (n + 1) % count if count > 1 else None
    return n + 1 if n + 1 < count else None


# ---------------------------------------------------------------------------
# reference per-vehicle operations


def gap(state: FcmState, n: int) -> FuzzyInt:
    """Fuzzy number of free cells in front of vehicle ``n``.

    Extension-principle difference (leader position - leader length -
    own position) over support pairs where the leader value is strictly
    ahead (positive cyclic distance on a ring); negative results clamp
    to 0 with grades merged by max.  Without a leader the gap is the
    class maximum velocity; with every pair filtered out it is {1/0}.
    If the filter drops every grade-1 pair the gap is sub-normal, and
    the update propagates it as-is.
    """
    veh = state.vehicles[n]
    li = _leader_index(state, n)
    if li is None:
        return veh.vclass.v_max
    lead = state.vehicles[li]
    deltas = np.subtract.outer(lead.position.values, veh.position.values)
    if state.boundary == "ring":
        deltas %= state.road_length
    grades = np.minimum.outer(lead.position.grades, veh.position.grades)
    ahead = deltas > 0
    if not ahead.any():
        return crisp(0)
    deltas = deltas[ahead]
    grades = grades[ahead]
    out = np.zeros(int(deltas.max()) + 1, dtype=np.float64)
    length = lead.vclass.length
    for l, gl in zip(length.values.tolist(), length.grades.tolist()):
        np.maximum.at(out, np.maximum(deltas - l, 0), np.minimum(grades, gl))
    idx = out.nonzero()[0]
    return FuzzyInt._from_arrays(idx.astype(np.int64, copy=False), out[idx])


def dilation_exponent(velocity: FuzzyInt, v_max: FuzzyInt, alpha: float) -> float:
    """Dilation exponent: alpha at standstill, rising linearly to 1 at top speed."""
    vmax_hat = defuzz_argmax(v_max)
    if vmax_hat == 0:
        raise DegenerateClassError("defuzzified maximum velocity is 0")
    return _exponent(defuzz_argmax(velocity), vmax_hat, alpha)


def _exponent(v_hat: int, vmax_hat: int, alpha: float) -> float:
    if v_hat >= vmax_hat:
        return 1.0
    e = alpha + (1.0 - alpha) * (v_hat / vmax_hat)
    if e > 1.0:
        return 1.0
    if e <= 0.0:
        return _EXPONENT_FLOOR
    return e


def update_velocity(state: FcmState, n: int) -> FuzzyInt:
    """New fuzzy velocity of vehicle ``n`` from the time-t snapshot."""
    veh = state.vehicles[n]
    return ext_min(ext_add(veh.velocity, veh.vclass.accel), gap(state, n), veh.vclass.v_max)


def advance_position(
    position: FuzzyInt,
    velocity: FuzzyInt,
    e: float,
    epsilon: float,
    modulus: int | None = None,
) -> FuzzyInt:
    """Next fuzzy position: dilated sum, truncated, wrapped on a ring."""
    moved = truncate(dilate(ext_add(position, velocity), e), epsilon)
    if modulus is not None:
        moved = wrap_mod(moved, modulus)
    return moved


def reference_step(state: FcmState) -> FcmState:
    """One parallel update composed from the reference ops, vehicle by
    vehicle: the state :func:`step` must return, bit for bit."""
    modulus = state.road_length if state.boundary == "ring" else None
    vehicles = []
    for i, veh in enumerate(state.vehicles):
        v = update_velocity(state, i)
        e = dilation_exponent(v, veh.vclass.v_max, state.alpha)
        p = advance_position(veh.position, v, e, state.epsilon, modulus)
        vehicles.append(replace(veh, position=p, velocity=v))
    return replace(state, vehicles=tuple(vehicles), step=state.step + 1)


# ---------------------------------------------------------------------------
# engine


def step(state: FcmState) -> FcmState:
    """Advance the whole road by one step (parallel update).

    Gaps and velocities are computed for every vehicle from the time-t
    snapshot before any position moves, so per-vehicle evaluation order
    cannot influence the result.
    """
    return run_ring(state, 1)[0]


def run_ring(state: FcmState, steps: int, theta: float | None = None):
    """Advance ``steps`` updates on either boundary: ``(final_state, flows)``.

    ``flows[t]`` is the :func:`flow_summary` after update t + 1;
    ``flows`` is None when ``theta`` is None.  On a ring the run stops
    simulating once a state repeats an earlier one up to a rotation and
    a relabelling of the vehicles, as the module docstring explains; the
    result equals ``steps`` calls of :func:`step`, flows included.  The
    fleet tables of ``state``, built or carried, go on with the result.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    flows = None if theta is None else []
    if not state.vehicles:
        flows = flows if flows is None else [(0, 0, 0)] * steps
        return replace(state, step=state.step + steps), flows
    fleet = getattr(state, "_fleet", None) or _Fleet(state)
    rows = _rows(state, fleet.cap)
    held = []  # velocity rows whose flows are not summed yet
    # a repeat is nominated at update 2 at the earliest, confirmed at 3
    watch = _Repeats(fleet.kind) if fleet.ring and steps > 2 else None
    t, end = 0, steps
    while t < end:
        rows = _update(fleet, *rows)
        t += 1
        if watch is not None and (cycle := watch.see(t, rows)) is not None:
            watch = None
            period, r, s = cycle
            end = t + (steps - t) % period  # simulate the last part lap only
        if flows is not None:
            held.append(rows[2])
            if len(held) == _FLOW_BATCH or t == end:
                sums = _flow_rows(np.stack(held), theta)
                flows.extend(zip(*(column.tolist() for column in sums)))
                held.clear()
    if end < steps:
        laps = (steps - end) // period
        if flows is not None:
            flows.extend(flows[-period:] * laps)
        rows = _roll_rows(rows, laps * r, laps * s)
    out = _materialize(state, rows, state.step + steps)
    object.__setattr__(out, "_fleet", fleet)  # not a field: replace drops it
    return out, flows


def flow_summary(state: FcmState, theta: float) -> tuple[int, int, int]:
    """Sums over the vehicles of the defuzzified velocity and of the
    bounds of its ``theta``-cut, ``theta`` in (0, 1]; a sub-normal
    velocity below ``theta`` is cut at its maximal grade."""
    if not state.vehicles:
        return (0, 0, 0)
    sums = _flow_rows(_dense_rows([veh.velocity for veh in state.vehicles]), theta)
    return tuple(int(s) for s in sums)


def _flow_rows(vel, theta):
    """The three flow sums of velocity rows ``(..., vehicle, velocity)``,
    one value per index of the leading axes."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"flow cut threshold {theta!r} not in (0, 1]")
    cut = vel >= np.minimum(theta, vel.max(axis=-1, keepdims=True))
    hi = cut.shape[-1] - 1 - cut[..., ::-1].argmax(axis=-1)
    return vel.argmax(axis=-1).sum(axis=-1), cut.argmax(axis=-1).sum(axis=-1), hi.sum(axis=-1)


# Velocity rows of a run held before their flows are summed in one pass:
# at 93 vehicles and 5 velocity columns, about 0.1 MB.
_FLOW_BATCH = 32


def _rows(state, cap):
    """The read-only engine rows ``(pos, origin, vel)`` of a state:
    positions across the road from cell 0 on a ring, from the lowest
    support value on an open road; velocity columns up to ``cap``."""
    positions = [veh.position for veh in state.vehicles]
    if state.boundary == "ring":
        origin, width = 0, state.road_length
    else:
        origin, width = min(int(p.values[0]) for p in positions), None
    pos = _dense_rows(positions, origin, width)
    vel = _dense_rows([veh.velocity for veh in state.vehicles], 0, cap + 1)
    pos.setflags(write=False)
    vel.setflags(write=False)
    return pos, origin, vel


def _materialize(state, rows, t):
    """The state at step ``t`` holding ``state``'s vehicles with the given rows."""
    pos, origin, vel = rows
    updated = zip(state.vehicles, _from_dense_rows(origin, pos), _from_dense_rows(0, vel))
    vehicles = tuple(FcmVehicle(veh.index, veh.vclass, p, v) for veh, p, v in updated)
    return replace(state, vehicles=vehicles, step=t)


class _Fleet:
    """Per-row constants: tables built once per class, indexed by each
    row's class, and each row's leader row (-1: none).

    ``cap`` is the largest v_max support value in the fleet.  ``length``
    is each row's leader-length grade row reversed, the longest length L
    first: a row sum with it puts distance - length k at column L + k.
    The gap = distance - leader length, clamped to [0, cap]: ``clamp``
    starts gap 0 at column 0 and gap k at column L + k, so gap 0 takes
    every column up to L and gap cap every column from L + cap.  From
    ``reach`` = cap + L on, every distance gives gap cap.
    """

    def __init__(self, state):
        by_id = {}  # index and class, by identity: equal classes stay apart
        kind = np.array([by_id.setdefault(id(v.vclass), (len(by_id), v.vclass))[0]
                         for v in state.vehicles])
        classes = [c for _, c in by_id.values()]
        self.ring = state.boundary == "ring"
        self.leader = np.arange(1, len(kind) + 1)
        self.leader[-1] = 0 if self.ring and len(kind) > 1 else -1
        self.free = self.leader < 0
        self.epsilon = state.epsilon
        vmax = _dense_rows([c.v_max for c in classes])
        vmax_hat = vmax.argmax(axis=1).tolist()  # defuzz_argmax of each class
        if 0 in vmax_hat:
            raise DegenerateClassError("defuzzified maximum velocity is 0")
        self.cap = vmax.shape[1] - 1
        self.kind = kind
        # dilation exponent by class and defuzzified new velocity
        self.exponent = np.array(
            [[_exponent(v, m, state.alpha) for v in range(self.cap + 1)] for m in vmax_hat]
        )
        self.vmax = vmax[kind]
        self.vmax_tail = _suffix_max(self.vmax)
        self.accel = _dense_rows([c.accel for c in classes])[kind]
        self.length = _dense_rows([c.length for c in classes])[:, ::-1][kind[self.leader]]
        self.reach = self.cap + self.length.shape[1] - 1
        self.clamp = np.arange(self.reach - self.cap, self.reach + 1)
        self.clamp[0] = 0


# Ring keys kept before they are dropped: about 0.4 MB.
_KEYS_KEPT = 4096


class _Repeats:
    """Watches a ring run for a state that repeats an earlier one up to
    a rotation by s cells and a relabelling by r vehicles.

    It takes rows and each row's class, not a state, so one watcher can
    follow any block of ring rows.  Each state's :func:`_ring_key` maps
    to the last update that gave it.  A hit only nominates the distance
    p between the two updates: the state is held, and p updates later
    the new state is compared with it, relabelled and rotated, by exact
    equality (:func:`_symmetry`).  A failed comparison frees the slot
    for the next nomination.  A period is missed, and every update
    simulated, when the keys repeat sooner than the states, or when it
    is longer than ``_KEYS_KEPT`` updates: the keys are dropped that
    often, which bounds their memory.
    """

    def __init__(self, kind):
        self.kind = kind
        self.seen = {}
        self.held = None  # (due update, period, rows)

    def see(self, t, rows):
        """``(p, r, s)`` once the rows after update ``t`` are those after
        update t - p relabelled by r and rotated by s; otherwise None."""
        if self.held is not None and self.held[0] == t:
            _, period, earlier = self.held
            self.held = None
            shift = _symmetry(self.kind, earlier, rows)
            if shift is not None:
                return (period, *shift)
        if len(self.seen) == _KEYS_KEPT:
            self.seen.clear()
        key = _ring_key(rows[0])
        before = self.seen.get(key)
        self.seen[key] = t
        if before is not None and self.held is None:
            self.held = (2 * t - before, t - before, rows)
        return None


def _ring_key(pos):
    """A key of ring position rows that no rotation or relabelling
    changes: the wrapping sum of the bits of all their grades.  Equal
    keys do not imply equal states."""
    return int(pos.view(np.uint64).sum())


def _symmetry(kind, earlier, later):
    """``(r, s)`` such that ``later`` holds the rows of ``earlier``
    relabelled by r (row i becomes row i + r) and rotated by s cells,
    where ``kind``, the class of each row, rolled by r equals ``kind``;
    otherwise None."""
    pos_a, _, vel_a = earlier
    pos_b, _, vel_b = later
    n, width = pos_a.shape
    head = pos_b[0]
    tops = np.flatnonzero(head == head.max())
    for j in np.flatnonzero((vel_a == vel_b[0]).all(axis=1)):  # rows that may become row 0
        r = (n - j) % n
        if not (np.array_equal(np.roll(kind, r), kind)
                and np.array_equal(np.roll(vel_a, r, axis=0), vel_b)):
            continue
        for s in tops - pos_a[j].argmax():
            if np.array_equal(np.roll(pos_a, (r, s), axis=(0, 1)), pos_b):
                return int(r), int(s) % width
    return None


def _roll_rows(rows, r, s):
    """Ring rows relabelled by r and rotated by s cells, read-only."""
    pos, origin, vel = rows
    pos = np.roll(pos, (r, s), axis=(0, 1))
    vel = np.roll(vel, r, axis=0)
    pos.setflags(write=False)
    vel.setflags(write=False)
    return pos, origin, vel


def _update(fleet, pos, origin, vel):
    """One parallel update of the dense rows; returns (pos, origin, vel).

    ``pos`` column c is cell origin + c (origin 0 on a ring), ``vel``
    column v velocity v.  Gap: ``diag[:, d]`` is the max-min grade of the
    pairs at distance d from a row to its leader's row, which is extended
    with zeros on an open road and with itself on a ring; the last column
    takes all distances from ``reach`` on: a running window maximum on a
    ring, and on an open road, where every such window runs into the zero
    padding, the leader row's suffix maximum.  The gap = distance -
    leader length, clamped to [0, cap]: the row sum of ``diag`` and the
    reversed length rows, maximized over the ``clamp`` ranges of its
    columns (see :class:`_Fleet`).  The cap is exact: the velocity
    minimum never exceeds the row's own v_max <= cap, and its grades
    below depend only on suffix maxima of the gap, which merging into cap
    keeps.  Velocity: the same row sum for ``+ accel``, the suffix-max
    formula of :func:`_min_rows` for each minimum.  Position: the same
    row sum, per-row dilation, truncation; a ring folds the overflow
    modulo its length, an open road trims zero columns and moves its
    origin.  Max and min only pick grades, so this equals the reference
    ops bit for bit.
    """
    n, width = pos.shape
    reach = fleet.reach
    lead = pos[fleet.leader]
    ext = np.concatenate([lead, lead if fleet.ring else np.zeros_like(lead)], axis=1)
    diag = np.zeros((n, reach + 1))  # by distance; no pair is at distance 0
    near = min(reach, width)
    if near > 1:  # shifted[:, k] is the leader row moved k + 1 cells, a view of ext
        item = ext.itemsize
        shifted = np.ndarray((n, near - 1, width), ext.dtype, ext, item, (ext.strides[0], item, item))
        np.minimum(pos[:, None, :], shifted).max(axis=2, out=diag[:, 1:near])
    if reach < width:
        if fleet.ring:
            far = _window_max(ext[:, reach : 2 * width - 1], width - reach)
        else:  # zero padding: each window from reach on runs to the row's end
            far = np.zeros_like(pos)
            far[:, : width - reach] = _suffix_max(lead)[:, reach:]
        diag[:, reach] = np.minimum(pos, far, out=far).max(axis=1)
    gap = np.maximum.reduceat(_add_rows(diag, fleet.length), fleet.clamp, axis=1)
    gap[:, 0] += ~gap.any(axis=1)  # a leader never ahead leaves {1/0}
    gap[fleet.free] = fleet.vmax[fleet.free]  # no leader: the gap is v_max

    reachable = _add_rows(vel, fleet.accel)
    vel = _min_rows(_min_rows(reachable, gap, _suffix_max(gap)), fleet.vmax, fleet.vmax_tail)

    exponents = fleet.exponent[fleet.kind, vel.argmax(axis=1)]
    moved = _add_rows(pos, vel)
    for e in set(exponents.tolist()) - {1.0}:
        # scalar, as in dilate: x ** 0.5 is then a sqrt, not pow's last bit
        rows = exponents == e
        moved[rows] = np.power(moved[rows], e)
    if fleet.epsilon > 0.0:
        np.putmask(moved, moved < np.minimum(fleet.epsilon, moved.max(axis=1, keepdims=True)), 0.0)
    if fleet.ring:
        pos = moved[:, :width]
        for start in range(width, width + fleet.cap, width):
            chunk = moved[:, start : start + width]
            np.maximum(pos[:, : chunk.shape[1]], chunk, out=pos[:, : chunk.shape[1]])
    else:
        cells = moved.any(axis=0).nonzero()[0]
        origin += int(cells[0])
        pos = moved[:, cells[0] : cells[-1] + 1]
    pos.setflags(write=False)  # the next update reads these rows
    vel.setflags(write=False)
    return pos, origin, vel


def _add_rows(a, b):
    """Row-wise ext_add of rows from value 0: max of a shifted by b's values.

    Row k of ``cols`` holds min(a, b[:, k]) and zero padding; read back
    in rows one column shorter, row k moves k columns right.
    """
    n, wa = a.shape
    wb = b.shape[1]
    cols = np.empty((n, wb, wa + wb))
    np.minimum(a[:, None, :], b[:, :, None], out=cols[:, :, :wa])
    cols[:, :, wa:] = 0.0
    skewed = cols.reshape(n, -1)[:, : wb * (wa + wb - 1)].reshape(n, wb, wa + wb - 1)
    return skewed.max(axis=1)


def _min_rows(a, b, b_tail):
    """Row-wise ext_min of rows from value 0; ``b_tail`` is b's suffix max.

    min(x, y) = z requires (x = z and y >= z) or (y = z and x >= z), so
    mu(z) = max(min(mu_a(z), S_b(z)), min(mu_b(z), S_a(z))) with S the
    suffix maximum of the other row's grades.
    """
    k = b.shape[1]
    return np.maximum(np.minimum(a[:, :k], b_tail), np.minimum(b, _suffix_max(a)[:, :k]))


def _suffix_max(rows):
    return np.maximum.accumulate(rows[:, ::-1], axis=1)[:, ::-1]


def _window_max(ext, window):
    """Row-wise running maximum over a ``window``-wide sliding range."""
    m, w = ext, 1
    while w < window:  # m[:, j] = max(ext[:, j : j + w]); w doubles, then tops up
        shift = min(w, window - w)
        m = np.maximum(m[:, : m.shape[1] - shift], m[:, shift:])
        w += shift
    return m


# ---------------------------------------------------------------------------
# views and drivers


def cell_occupancy(state: FcmState, c: int) -> dict[int, float]:
    """Fuzzy set of vehicle indexes occupying cell ``c`` (index -> grade)."""
    if not 0 <= c < state.road_length:
        raise ValueError(f"cell {c} outside road of length {state.road_length}")
    out: dict[int, float] = {}
    for veh in state.vehicles:
        g = veh.position.grade(c)
        if g > 0.0:
            out[veh.index] = g
    return out


def trajectory(state: FcmState, steps: int) -> list[FcmState]:
    """The initial state followed by ``steps`` successive updates."""
    return list(iter_states(state, steps))


def iter_states(state: FcmState, steps: int):
    """Yield the initial state and then ``steps`` successive updates,
    each materialized from the rows of :func:`iter_rows`."""
    for t, rows in enumerate(iter_rows(state, steps)):
        yield state if t == 0 else _materialize(state, rows, state.step + t)


def iter_rows(state: FcmState, steps: int):
    """Yield the engine rows ``(pos, origin, vel)`` of the initial state
    and then of ``steps`` successive updates.

    ``pos[i, c]`` is vehicle i's grade at cell origin + c (origin 0 and
    one column per cell on a ring); ``vel[i, v]`` its grade at velocity
    v, up to the largest v_max support value in the fleet.  The arrays
    are read-only, since the next update reads them.  No fuzzy set is
    built per step; ``_from_dense_rows`` turns the rows back into the
    sets that :func:`step` gives.  A fleet with no vehicles yields rows
    with no vehicle.
    """
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    if not state.vehicles:
        empty = _dense_rows([])
        empty.setflags(write=False)
        for _ in range(steps + 1):
            yield empty, 0, empty
        return
    yield _rows(state, max(int(veh.vclass.v_max.values[-1]) for veh in state.vehicles))
    if steps < 1:
        return
    # The first update is a call to step, not to _update: benchmarks time
    # the run from the first call into the engine (step, run_ring or
    # nasch.monte_carlo).  The state it returns carries the fleet tables;
    # its rows are rebuilt from its sets once.
    out = step(state)
    fleet = out._fleet
    rows = _rows(out, fleet.cap)
    yield rows
    for _ in range(steps - 1):
        rows = _update(fleet, *rows)
        yield rows


def membership_of_rows(rows, road_length: int) -> np.ndarray:
    """Per-cell maximal position grade over the vehicles of engine rows
    (:func:`iter_rows`): the column maximum of ``pos``, placed at
    ``origin`` and clipped to ``[0, road_length)``."""
    pos, origin, _ = rows
    row = np.zeros(road_length, dtype=np.float64)
    lo, hi = max(origin, 0), min(origin + pos.shape[1], road_length)
    if lo < hi:
        row[lo:hi] = pos[:, lo - origin : hi - origin].max(axis=0, initial=0.0)
    return row


def queue_length_of_rows(rows, initial_positions) -> dict[int, float]:
    """Fuzzy queue length of engine rows (:func:`iter_rows`), as
    ``metrics.queue_length`` defines it.

    Vehicle i's in-queue degree is ``pos[i, slot_i - origin]`` (0 outside
    the row) min ``vel[i, 0]``; entry x of the result is the minimum of
    the rear x degrees and of the negated rest, zeros pruned.
    """
    pos, origin, vel = rows
    n, width = pos.shape
    cols = np.asarray(initial_positions, dtype=np.int64) - origin
    if cols.shape != (n,):
        raise ValueError(f"{cols.size} start cells given for {n} vehicles")
    inside = (cols >= 0) & (cols < width)
    degrees = np.zeros(n, dtype=np.float64)
    degrees[inside] = pos[inside.nonzero()[0], cols[inside]]
    np.minimum(degrees, vel[:, 0], out=degrees)  # velocity 0 is column 0
    prefix = np.concatenate(([1.0], np.minimum.accumulate(degrees)))
    suffix = np.concatenate(
        (np.minimum.accumulate((1.0 - degrees)[::-1])[::-1], [1.0])
    )
    mu = np.minimum(prefix, suffix)
    return {x: float(mu[x]) for x in np.flatnonzero(mu > 0.0).tolist()}


def ring_state(
    vclass: VehicleClass,
    road_length: int,
    count: int,
    alpha: float = 0.9,
    epsilon: float = 0.01,
) -> FcmState:
    """Stopped vehicles spread evenly around a ring road."""
    if count > road_length:
        raise ValueError("cannot place more vehicles than cells on the ring")
    vehicles = tuple(
        FcmVehicle(i, vclass, crisp(i * road_length // count), crisp(0))
        for i in range(count)
    )
    return FcmState(vehicles, road_length, "ring", alpha, epsilon)


def stopped_queue(
    vclass: VehicleClass,
    count: int,
    road_length: int,
    start: int = 0,
    spacing: int = 1,
    alpha: float = 0.9,
    epsilon: float = 0.01,
) -> FcmState:
    """A stopped column of vehicles on an open road, rear vehicle first."""
    vehicles = tuple(
        FcmVehicle(i, vclass, crisp(start + i * spacing), crisp(0))
        for i in range(count)
    )
    return FcmState(vehicles, road_length, "open", alpha, epsilon)
