"""Command-line entry point.

Subcommands: ``run`` executes a scenario and writes its declared
outputs; ``queue-experiment`` writes the model's queue-length series;
``fundamental-diagram`` sweeps ring densities; ``compare`` runs the
fuzzy model and the baseline ensemble side by side.  Scenario arguments
take a file path or the name of a bundled scenario.  Exit codes: 0 on
success, 1 on configuration or I/O failure, 2 on usage errors.

Trajectory outputs are streamed: one simulation feeds every space-time
image and fuzzy queue series of a command as its states arrive, and
each state is dropped once its rows are written, so memory does not
grow with the step count.  The fuzzy model's stream reads the engine's
dense grade rows (:func:`model.iter_rows`) directly; no fuzzy set or
vehicle object is built per step.  The ``wrote kind -> path`` lines
follow the order in which the scenario declares its outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

from . import metrics, model, nasch, simio
from .fuzznum import defuzz_argmax

OUT_DIR_ENV = "FUZZYCELL_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzycell",
        description="Fuzzy cellular traffic simulator with a Nagel-Schreckenberg baseline",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario file path or bundled scenario name")
    common.add_argument("--seed", type=int, default=None, help="override the ensemble base seed")
    common.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )
    common.add_argument("--steps", type=int, default=None, help="override the step count")
    common.add_argument("--alpha", type=float, default=None, help="override the dilation alpha")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="run a scenario and write its outputs")
    sub.add_parser(
        "queue-experiment", parents=[common], help="write the queue-length series"
    )
    fd = sub.add_parser(
        "fundamental-diagram", parents=[common], help="sweep ring densities"
    )
    fd.add_argument(
        "--densities",
        default=None,
        help="comma-separated densities in (0, 1], overriding the scenario",
    )
    sub.add_parser(
        "compare",
        parents=[common],
        help="fuzzy queue series next to the baseline ensemble histogram",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (simio.ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    config, stem = _load(args.scenario)
    if args.steps is not None:
        config = replace(config, steps=args.steps)
    if args.alpha is not None:
        config = replace(config, alpha=args.alpha)
    if args.seed is not None:
        config = replace(config, nasch=replace(config.nasch, base_seed=args.seed))
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "run":
        return _cmd_run(config, out_dir)
    if args.command == "queue-experiment":
        return _cmd_queue(config, stem, out_dir)
    if args.command == "fundamental-diagram":
        densities = _parse_densities(args.densities)
        return _cmd_fd(config, stem, out_dir, densities)
    return _cmd_compare(config, stem, out_dir)


def _load(spec: str):
    path = Path(spec)
    if path.exists():
        return simio.load_scenario_file(path), path.stem
    if path.suffix == "" and "/" not in spec and spec in simio.builtin_scenarios():
        return simio.load_builtin(spec), spec
    raise simio.ScenarioError(
        f"scenario {spec!r} not found (no such file; "
        f"bundled scenarios: {', '.join(simio.builtin_scenarios())})"
    )


def _parse_densities(raw):
    if raw is None:
        return None
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"--densities: {exc}") from exc
    if not values:
        raise ValueError("--densities: empty list")
    return values


def _emit(kind: str, path: Path) -> None:
    print(f"wrote {kind} -> {path}")


def _stream(config, outputs) -> None:
    """Simulate ``config`` once and write every (kind, path) output state by state.

    Each state becomes a space-time row and, for the fuzzy model, a queue
    length; both go to their open files and the state is dropped, so no
    trajectory is kept.  The fuzzy model is read straight from the
    engine's rows (:func:`model.iter_rows`).  Queue outputs need the
    fuzzy model.
    """
    if config.model == "fcm":
        frames = model.iter_rows(simio.build_fcm_state(config), config.steps)
        road = config.road_length
        slots = [defuzz_argmax(e.position) for e in config.fleet]

        def frame_row(rows):
            return model.membership_of_rows(rows, road)

        def queue_row(rows):
            return model.queue_length_of_rows(rows, slots)
    else:
        frames = nasch.iter_states(simio.build_nasch_state(config), config.steps)
        frame_row = simio.nasch_occupancy_row
    with ExitStack() as stack:
        sinks = []
        for kind, path in outputs:
            if kind == "spacetime":
                rows = simio.spacetime_rows(path, config.road_length, config.steps + 1)
                sinks.append((stack.enter_context(rows), frame_row))
            else:
                write = stack.enter_context(simio.queue_rows(path, "grade"))
                sinks.append((write, queue_row))
        for frame in frames:
            for write, row in sinks:
                write(row(frame))


def _nasch_histogram(config):
    ns = config.nasch
    initial = simio.build_nasch_state(config)
    ensemble = nasch.monte_carlo(initial, config.steps, ns.runs, ns.base_seed)
    return metrics.empirical_queue_distribution(ensemble)


def _cmd_run(config, out_dir) -> int:
    if not config.outputs:
        raise ValueError("scenario declares no outputs; nothing to write")
    kinds = ("spacetime", "queue") if config.model == "fcm" else ("spacetime",)
    streamed = [(s.kind, out_dir / s.path) for s in config.outputs if s.kind in kinds]
    for spec in config.outputs:
        target = out_dir / spec.path
        if spec.kind in kinds:
            if streamed:  # the first streamed output writes all of them in one pass
                _stream(config, streamed)
                streamed = None
        elif spec.kind == "queue":
            simio.write_queue_csv(_nasch_histogram(config), target)
        else:
            simio.write_fd_csv(metrics.sweep_fundamental_diagram(config), target)
        _emit(spec.kind, target)
    return 0


def _cmd_queue(config, stem, out_dir) -> int:
    target = _declared(config, "queue", out_dir, f"{stem}_{config.model}_queue.csv")
    if config.model == "fcm":
        _stream(config, [("queue", target)])
    else:
        simio.write_queue_csv(_nasch_histogram(config), target)
    _emit("queue", target)
    return 0


def _cmd_fd(config, stem, out_dir, densities) -> int:
    points = metrics.sweep_fundamental_diagram(config, densities=densities)
    target = _declared(config, "fundamental", out_dir, f"{stem}_fd.csv")
    simio.write_fd_csv(points, target)
    _emit("fundamental", target)
    return 0


def _cmd_compare(config, stem, out_dir) -> int:
    fuzzy_target = out_dir / f"{stem}_fcm_queue.csv"
    _stream(replace(config, model="fcm"), [("queue", fuzzy_target)])
    _emit("queue", fuzzy_target)
    nasch_target = out_dir / f"{stem}_nasch_queue.csv"
    simio.write_queue_csv(_nasch_histogram(config), nasch_target)
    _emit("queue", nasch_target)
    return 0


def _declared(config, kind, out_dir, fallback):
    for spec in config.outputs:
        if spec.kind == kind:
            return out_dir / spec.path
    return out_dir / fallback


if __name__ == "__main__":
    raise SystemExit(main())
