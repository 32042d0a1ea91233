"""Observables: fuzzy queue lengths, flow summaries, fundamental diagrams.

The fuzzy queue length follows a graded prefix rule: the queue has
length x to the degree that vehicles 0..x-1 (counted from the rear) are
still queued and the rest are not, with min as conjunction and 1-g as
negation.  The result is a plain value -> grade mapping because the
involved degrees can leave no length fully possible (sub-normal), which
the plotting side renders as-is.

Flow on a ring is the extension-principle sum of all vehicle velocities
scaled by 1/road_length.  Its defuzzified value and cut bounds are
computed per vehicle and summed, which is exact: the grade-1 optimum and
the threshold cuts of a max-min sum both add up over the operands (the
test suite checks this against explicitly folded sums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nasch as nasch_mod
from .model import (
    FcmState,
    FcmVehicle,
    flow_summary,
    iter_rows,
    queue_length_of_rows,
    ring_state,
    run_ring,
)
from .simio import ScenarioValidationError

__all__ = [
    "InsufficientStepsError",
    "FlowSummary",
    "FdPoint",
    "NaschFdPoint",
    "in_queue_degree",
    "queue_length",
    "queue_series",
    "argmax_grade",
    "step_flow",
    "fuzzy_flow",
    "sweep_fundamental_diagram",
    "empirical_queue_distribution",
    "modal_series",
    "is_unimodal",
]


class InsufficientStepsError(ValueError):
    """Raised when a state series is too short for the warmup."""


def in_queue_degree(vehicle: FcmVehicle, initial_position: int) -> float:
    """Degree to which a vehicle still queues at its start cell.

    min of "position is the start cell" and "velocity is 0"; zero when
    either value left the respective support.
    """
    return min(vehicle.position.grade(initial_position), vehicle.velocity.grade(0))


def queue_length(state: FcmState, initial_positions) -> dict[int, float]:
    """Fuzzy queue length as a value -> grade mapping (zeros pruned).

    Entry x carries min(degrees of the rear x vehicles, negated degrees
    of the rest).  The mapping can be sub-normal or even empty when the
    in-queue degrees are contradictory (a moving vehicle behind a queued
    one); it is returned unnormalized.  ``initial_positions`` holds one
    start cell per vehicle.  The degrees are those of
    :func:`in_queue_degree`, read from the state's engine rows.
    """
    return queue_length_of_rows(next(iter_rows(state, 0)), initial_positions)


def queue_series(states, initial_positions) -> list[dict[int, float]]:
    """Per-step fuzzy queue lengths along a recorded trajectory."""
    return [queue_length(s, initial_positions) for s in states]


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


# ---------------------------------------------------------------------------
# flow


@dataclass(frozen=True)
class FlowSummary:
    """Aggregated fuzzy flow: defuzzified value and cut bounds (veh/step/cell)."""

    argmax: float
    cut_low: float
    cut_high: float


def step_flow(state: FcmState, theta: float = 0.99) -> tuple[float, float, float]:
    """One step's fuzzy flow triple (argmax, cut low, cut high) per cell."""
    s_hat, s_lo, s_hi = flow_summary(state, theta)
    c = state.road_length
    return (s_hat / c, s_lo / c, s_hi / c)


def fuzzy_flow(states, warmup: int, theta: float = 0.99) -> FlowSummary:
    """Mean fuzzy flow over a trajectory after discarding the warmup.

    ``states[0]`` is the initial state; it and the first ``warmup``
    updates are discarded.
    """
    measured = list(states)[warmup + 1 :]
    if not measured:
        raise InsufficientStepsError(
            f"series of {len(list(states))} states cannot cover warmup {warmup}"
        )
    triples = np.array([step_flow(s, theta) for s in measured])
    mean = triples.mean(axis=0)
    return FlowSummary(float(mean[0]), float(mean[1]), float(mean[2]))


# ---------------------------------------------------------------------------
# fundamental diagrams


@dataclass(frozen=True)
class FdPoint:
    """Fuzzy-model diagram point; cut bounds bracket the defuzzified flow."""

    density: float
    flow_argmax: float
    flow_cut_low: float
    flow_cut_high: float

    def __post_init__(self):
        if not self.flow_cut_low <= self.flow_argmax <= self.flow_cut_high:
            raise ValueError("flow cut bounds must bracket the defuzzified flow")


@dataclass(frozen=True)
class NaschFdPoint:
    """Baseline diagram point: mean flow plus the probable flow states.

    ``states`` holds (flow, empirical probability) pairs at or above the
    configured probability threshold, sorted by flow.
    """

    density: float
    mean_flow: float
    states: tuple[tuple[float, float], ...]


def sweep_fundamental_diagram(config, densities=None, warmup=None, window=None):
    """Run the configured model across ring densities, one point each.

    ``config`` is a scenario configuration on a ring road; its first
    vehicle class defines the fleet.  Explicit arguments override the
    scenario's diagram settings.  Returns FdPoint or NaschFdPoint entries
    in density order.
    """
    if config.boundary != "ring":
        raise ScenarioValidationError(
            f"fundamental diagrams need a ring road, not boundary {config.boundary!r}"
        )
    fd = config.fd
    if densities is None:
        if fd is None or not fd.densities:
            raise ValueError("no densities configured for the diagram sweep")
        densities = fd.densities
    warmup = (fd.warmup if fd else 100) if warmup is None else warmup
    window = (fd.window if fd else 500) if window is None else window
    theta = fd.theta if fd else 0.99
    threshold = fd.nasch_threshold if fd else 0.1
    estimator = fd.estimator if fd else "mean_velocity"
    road = config.road_length
    points = []
    for k, density in enumerate(densities):
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density {density} outside (0, 1]")
        count = round(density * road)
        if count < 1:
            raise ValueError(f"density {density} places no vehicle on {road} cells")
        if config.model == "fcm":
            points.append(
                _fcm_point(config, count, warmup, window, theta)
            )
        else:
            points.append(
                _nasch_point(config, count, k, warmup, window, threshold, estimator)
            )
    return points


def _fcm_point(config, count, warmup, window, theta):
    vclass = config.classes[0]
    initial = ring_state(vclass, config.road_length, count, config.alpha, config.epsilon)
    _, flows = run_ring(initial, warmup + window, theta=theta)
    rows = np.array(flows[warmup:], dtype=np.float64) / config.road_length
    mean = rows.mean(axis=0)
    return FdPoint(
        density=count / config.road_length,
        flow_argmax=float(mean[0]),
        flow_cut_low=float(mean[1]),
        flow_cut_high=float(mean[2]),
    )


def _nasch_point(config, count, index, warmup, window, threshold, estimator):
    ns = config.nasch
    initial = nasch_mod.ring_uniform(count, config.road_length, ns.v_max, ns.p)
    base = ns.base_seed + index * ns.runs  # disjoint seed block per density
    ens = nasch_mod.monte_carlo(initial, warmup + window, ns.runs, base)
    if estimator == "site_count":
        samples = ens.crossings[:, warmup:].astype(np.float64)
    else:
        samples = ens.total_velocity[:, warmup:] / config.road_length
    flat = samples.ravel()
    values, counts = np.unique(flat, return_counts=True)
    probs = counts / flat.size
    keep = probs >= threshold
    states = tuple(
        (float(v), float(p)) for v, p in zip(values[keep], probs[keep])
    )
    return NaschFdPoint(
        density=count / config.road_length,
        mean_flow=float(flat.mean()),
        states=states,
    )


# ---------------------------------------------------------------------------
# ensemble histograms


def empirical_queue_distribution(ensemble: nasch_mod.NaschEnsemble) -> np.ndarray:
    """Per-step normalized histogram of crisp queue lengths.

    Row t gives the probability of each length 0..m after t steps; every
    row sums to 1.
    """
    if ensemble.runs < 1:
        raise ValueError("empty ensemble")
    qlen = ensemble.queue_lengths
    m = int(qlen[:, 0].max(initial=0))
    hist = np.zeros((qlen.shape[1], m + 1), dtype=np.float64)
    for t in range(qlen.shape[1]):
        hist[t] = np.bincount(qlen[:, t], minlength=m + 1) / ensemble.runs
    return hist


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
