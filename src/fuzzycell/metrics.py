"""Observables: fuzzy queue lengths, fundamental diagrams, ensemble histograms.

The fuzzy queue length follows a graded prefix rule: the queue has
length x to the degree that vehicles 0..x-1 (counted from the rear) are
still queued and the rest are not, with min as conjunction and 1-g as
negation.  The result is a plain value -> grade mapping because the
involved degrees can leave no length fully possible (sub-normal), which
the plotting side renders as-is.

Flow on a ring is the extension-principle sum of all vehicle velocities
scaled by 1/road_length.  It has one implementation in the model:
:func:`model.flow_summary` gives one state's defuzzified sum and cut
bounds, and :func:`model.run_ring` returns that triple after every
step, which the diagram sweep averages.  The sums are computed per
vehicle and added, which is exact: the grade-1 optimum and the
threshold cuts of a max-min sum both add up over the operands (the test
suite checks this against explicitly folded sums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nasch as nasch_mod
from .model import (
    FcmState,
    FcmVehicle,
    iter_rows,
    queue_length_of_rows,
    ring_state,
    run_ring,
)
from .simio import ScenarioValidationError

__all__ = [
    "FdPoint",
    "NaschFdPoint",
    "in_queue_degree",
    "queue_length",
    "argmax_grade",
    "sweep_fundamental_diagram",
    "empirical_queue_distribution",
    "modal_series",
    "is_unimodal",
]


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


def sweep_fundamental_diagram(config):
    """Run the configured model at each density of ``config.fd``, one point each.

    ``config`` is a scenario configuration on a ring road; its first
    vehicle class defines the fleet and ``config.fd`` holds every diagram
    setting.  Sweep other settings as ``replace(config, fd=replace(
    config.fd, ...))``, which checks them as the scenario loader does.
    Returns FdPoint or NaschFdPoint entries in density order.
    """
    if config.boundary != "ring":
        raise ScenarioValidationError(
            f"fundamental diagrams need a ring road, not boundary {config.boundary!r}"
        )
    if not config.fd.densities:
        raise ValueError("no densities configured for the diagram sweep")
    road = config.road_length
    points = []
    for k, density in enumerate(config.fd.densities):
        count = round(density * road)
        if count < 1:
            raise ValueError(f"density {density} places no vehicle on {road} cells")
        if config.model == "fcm":
            points.append(_fcm_point(config, count))
        else:
            points.append(_nasch_point(config, count, k))
    return points


def _fcm_point(config, count):
    vclass, fd = config.classes[0], config.fd
    initial = ring_state(vclass, config.road_length, count, config.alpha, config.epsilon)
    _, flows = run_ring(initial, fd.warmup + fd.window, theta=fd.theta)
    rows = np.array(flows[fd.warmup:], dtype=np.float64) / config.road_length
    mean = rows.mean(axis=0)
    return FdPoint(
        density=count / config.road_length,
        flow_argmax=float(mean[0]),
        flow_cut_low=float(mean[1]),
        flow_cut_high=float(mean[2]),
    )


def _nasch_point(config, count, index):
    ns, fd = config.nasch, config.fd
    initial = nasch_mod.ring_uniform(count, config.road_length, ns.v_max, ns.p)
    base = ns.base_seed + index * ns.runs  # disjoint seed block per density
    ens = nasch_mod.monte_carlo(initial, fd.warmup + fd.window, ns.runs, base)
    if fd.estimator == "site_count":
        sums, scale = ens.crossings[:, fd.warmup:], 1
    else:
        sums, scale = ens.total_velocity[:, fd.warmup:], config.road_length
    # the flow states are the integer sums k, as k / scale: count them exactly
    counts = np.bincount(sums.ravel())
    probs = counts / sums.size
    keep = (counts > 0) & (probs >= fd.nasch_threshold)
    values = np.flatnonzero(keep) / scale
    states = tuple((float(v), float(p)) for v, p in zip(values, probs[keep]))
    return NaschFdPoint(
        density=count / config.road_length,
        mean_flow=float((sums / scale).mean()),
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
