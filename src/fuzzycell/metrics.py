"""Observables: fundamental diagrams and ensemble histograms.

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
from .model import ring_state, run_ring
from .simio import ScenarioValidationError

__all__ = [
    "FdPoint",
    "NaschFdPoint",
    "sweep_fundamental_diagram",
    "empirical_queue_distribution",
]


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
    Every setting is checked before the first point is simulated.
    Returns FdPoint or NaschFdPoint entries in density order.
    """
    if config.boundary != "ring":
        raise ScenarioValidationError(
            "scenario.boundary: fundamental diagrams need a ring road, "
            f"not boundary {config.boundary!r}"
        )
    if not config.fd.densities:
        raise ScenarioValidationError(
            "scenario.fd.densities: no densities configured for the diagram sweep"
        )
    points = []
    for k, density in enumerate(config.fd.densities):
        count = round(density * config.road_length)  # at least 1: the config checks it
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
