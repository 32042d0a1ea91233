"""Classical Nagel-Schreckenberg cellular automaton baseline.

Crisp single-lane CA: integer cell positions, integer velocities up to
``v_max``, parallel rule per step: accelerate, brake to the gap,
randomize (slow down by one with probability ``p``), move.  Velocities
are cells per step; the physical cell length plays no role in the
dynamics.

Randomness comes from numpy's PCG64 generator (``numpy.random
.default_rng``), which belongs to the run, not to the state.  Every
vehicle consumes exactly one draw per step, in vehicle-index order,
whether or not the randomization applies, so a trajectory is fully
determined by the initial state and the seed.  The ensemble runner
gives run ``i`` its own generator, seeded ``base_seed + i``, and takes
its stream a fixed number of steps at a time.  A group of runs at a
time draws into one float64 scratch of bounded size, which is compared
with ``p`` into a boolean slow-down mask for every run, so no float
buffer holds the draws of every run.  The runner steps all runs
together on (vehicles x runs) arrays with carried gaps and is
bit-identical to stepping each run individually (see ``monte_carlo``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NaschState",
    "NaschEnsemble",
    "nasch_step",
    "iter_states",
    "monte_carlo",
    "queue_length",
    "ring_uniform",
]


@dataclass(eq=False)
class NaschState:
    """One road snapshot: vehicle ``i`` sits at ``positions[i]``.

    Positions are stored unwrapped (monotonic) so ring gaps stay simple
    differences; the ``cells`` property reduces them to cell indexes.
    ``rng_seed`` seeds the generator that a run from this state owns
    (:func:`iter_states`); the state itself holds no generator.
    """

    road_length: int
    boundary: str
    positions: np.ndarray
    velocities: np.ndarray
    v_max: int
    p: float
    rng_seed: int
    step: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.velocities = np.asarray(self.velocities, dtype=np.int64)
        if self.boundary not in ("open", "ring"):
            raise ValueError("boundary must be 'open' or 'ring'")
        if self.road_length < 1:
            raise ValueError("road_length must be at least 1")
        if self.v_max < 1:
            raise ValueError("v_max must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("randomization probability must lie in [0, 1]")
        if self.positions.size:
            if np.any(np.diff(self.positions) <= 0):
                raise ValueError("positions must be strictly increasing")
            if np.any(self.velocities < 0) or np.any(self.velocities > self.v_max):
                raise ValueError("velocities must lie in [0, v_max]")
            if self.boundary == "ring":
                span = int(self.positions[-1] - self.positions[0])
                if span >= self.road_length or self.positions.size > self.road_length:
                    raise ValueError("ring vehicles must occupy distinct cells")

    @property
    def cells(self) -> np.ndarray:
        """Occupancy by cell: vehicle index, or -1 for empty cells."""
        out = np.full(self.road_length, -1, dtype=np.int64)
        pos = self.positions % self.road_length if self.boundary == "ring" else self.positions
        inside = (pos >= 0) & (pos < self.road_length)
        out[pos[inside]] = np.arange(self.positions.size)[inside]
        return out


def ring_uniform(
    count: int, road_length: int, v_max: int = 3, p: float = 0.2, seed: int = 0
) -> NaschState:
    """Stopped vehicles spread evenly around a ring road."""
    positions = np.array([i * road_length // count for i in range(count)], dtype=np.int64)
    return NaschState(
        road_length, "ring", positions, np.zeros(count, dtype=np.int64), v_max, p, seed
    )


def _gaps(positions: np.ndarray, road_length: int, boundary: str, v_max: int) -> np.ndarray:
    gap = np.empty_like(positions)
    gap[:-1] = positions[1:] - positions[:-1] - 1
    if boundary == "ring":
        gap[-1] = positions[0] + road_length - positions[-1] - 1
    else:
        gap[-1] = v_max  # open downstream end never brakes the front vehicle
    return gap


def nasch_step(state: NaschState, rng: np.random.Generator) -> NaschState:
    """One parallel update: accelerate, brake, randomize, move.

    Consumes one uniform draw per vehicle from ``rng`` (in vehicle-index
    order) even when the randomization cannot apply.
    """
    pos = state.positions
    if pos.size == 0:
        return replace(state, step=state.step + 1)
    vel = np.minimum(state.velocities + 1, state.v_max)
    vel = np.minimum(vel, _gaps(pos, state.road_length, state.boundary, state.v_max))
    draws = rng.random(pos.size)
    vel = np.where(draws < state.p, np.maximum(vel - 1, 0), vel)
    return replace(state, positions=pos + vel, velocities=vel, step=state.step + 1)


def iter_states(state: NaschState, steps: int):
    """Yield the initial state and then ``steps`` successive updates,
    all drawing from one generator seeded ``state.rng_seed``."""
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    rng = np.random.default_rng(state.rng_seed)
    yield state
    for _ in range(steps):
        state = nasch_step(state, rng)
        yield state


def queue_length(state: NaschState, initial_positions: np.ndarray) -> int:
    """Crisp queue length: vehicles still at their start cell with v = 0.

    Counted from the rear: the length is the largest x such that
    vehicles 0..x-1 are all still queued.
    """
    in_queue = (state.positions == initial_positions) & (state.velocities == 0)
    if in_queue.all():
        return int(in_queue.size)
    return int(np.argmin(in_queue))


@dataclass(frozen=True)
class NaschEnsemble:
    """Per-run, per-step observables from independent seeded runs.

    ``queue_lengths[i, t]`` is the crisp queue length of run i after t
    steps (column 0 is the initial state); ``total_velocity[i, t]`` sums
    the vehicle velocities applied during step t+1, and ``crossings``
    counts vehicles passing the cell-0 seam on a ring (site flow).
    """

    runs: int
    steps: int
    queue_lengths: np.ndarray
    total_velocity: np.ndarray
    crossings: np.ndarray


_CHUNK = 64  # steps drawn per run at a time: the slow-down mask is runs x _CHUNK x n
_DRAW_BYTES = 1 << 20  # float64 scratch a group of runs draws into before the mask


def monte_carlo(initial: NaschState, steps: int, runs: int, base_seed: int) -> NaschEnsemble:
    """Run ``runs`` independent copies of ``initial`` for ``steps`` steps.

    Run i has its own generator, seeded ``base_seed + i``, and takes its
    draws in the order of :func:`nasch_step`, ``_CHUNK`` steps of its
    stream at a time; successive draws continue one stream, so each row
    is exactly what stepping that seed alone gives.  As many runs as fit
    in ``_DRAW_BYTES`` (at least one) draw into a shared float64
    scratch, and each such group is compared with ``p`` into the rows of
    a runs x ``_CHUNK`` x vehicles boolean mask, allocated once per call
    and read one step at a time.  The runs advance
    together on (vehicles x runs) arrays of the narrowest integer type
    that holds every value reached.  Gaps are carried, ``gap_i +=
    v_{i+1} - v_i``, which is exact: a gap is a difference of positions
    that move by those velocities.  A ring keeps positions modulo C, and
    as ``v <= gap <= C - 1`` a move crosses the seam at most once.  After
    step 0 a vehicle is queued exactly while it has never moved, since
    positions never fall back, so queue lengths cannot grow after step 1
    and the queue work stops once every run's queue is empty.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    n, C, v_max = initial.positions.size, initial.road_length, initial.v_max
    ring = initial.boundary == "ring"
    qlen = np.zeros((runs, steps + 1), dtype=np.int64)
    total_v = np.zeros((runs, steps), dtype=np.int64)
    crossings = np.zeros((runs, steps), dtype=np.int64)
    qlen[:, 0] = queue_length(initial, initial.positions)
    ensemble = NaschEnsemble(runs, steps, qlen, total_v, crossings)
    if n == 0:
        return ensemble
    gap = _gaps(initial.positions, C, initial.boundary, v_max)
    # every value fits: a lap plus its move stays below 2C, an open gap grows
    # by at most v_max a step, and a per-run sum reaches at most n * v_max
    grown = 0 if ring else int(gap.max()) + v_max * (steps + 1)
    dtype = np.min_scalar_type(-max(n * v_max, 2 * C, grown) - 1)
    vel, gap, lap = (
        np.repeat(col[:, None].astype(dtype), runs, axis=1)
        for col in (initial.velocities, gap, initial.positions % C)
    )
    queue, longest = np.full(runs, n), n
    gens = [np.random.default_rng(base_seed + i) for i in range(runs)]
    group = max(1, _DRAW_BYTES // (8 * _CHUNK * n))
    slow = np.empty((runs, min(steps, _CHUNK), n), dtype=bool)
    scratch = np.empty((min(group, runs), *slow.shape[1:]))
    for t in range(steps):
        k = t % _CHUNK
        if k == 0:
            for g in range(0, runs, group):
                block = scratch[: runs - g, : steps - t]
                for gen, stream in zip(gens[g:], block):
                    gen.random(out=stream)
                np.less(block, initial.p, out=slow[g : g + len(block), : steps - t])
        vel += vel < v_max  # accelerate: velocities never exceed v_max
        np.minimum(vel, gap, out=vel)
        vel -= slow[:, k].T & (vel > 0)
        total_v[:, t] = vel.sum(axis=0, dtype=dtype)
        gap[:-1] += vel[1:]
        gap[:-1] -= vel[:-1]
        if ring:
            gap[-1] += vel[0] - vel[-1]
            lap += vel
            cross = lap >= C
            crossings[:, t] = cross.sum(axis=0, dtype=dtype)
            lap -= cross * dtype.type(C)
        if longest:
            moved = vel[:longest] > 0
            queue = np.minimum(queue, np.where(moved.any(axis=0), moved.argmax(axis=0), longest))
            longest = queue.max()
            qlen[:, t + 1] = queue
    return ensemble
