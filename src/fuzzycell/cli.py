"""Command-line entry point.

Subcommands: ``run`` executes a scenario and writes its declared
outputs; ``queue-experiment`` writes the model's queue-length series;
``fundamental-diagram`` sweeps ring densities; ``compare`` runs the
fuzzy model and the baseline ensemble side by side.  Scenario arguments
take a file path or the name of a bundled scenario.  Exit codes: 0 on
success, 1 on configuration or I/O failure, 2 on usage errors.

Every override (``--steps``, ``--alpha``, ``--seed``, ``--densities``)
edits the loaded configuration, which checks the new value as the
scenario loader does.  Every command is then a list of ``(kind, path)``
outputs that one loop, :func:`_write`, produces in order, printing a
``wrote kind -> path`` line after each; ``run`` lists the outputs the
scenario declares.  ``compare`` writes the baseline histogram itself,
since it also accepts fuzzy fleets, which the baseline model rejects.

Trajectory outputs are streamed: one simulation feeds every space-time
image and fuzzy queue series of a command as its states arrive, and
each state is dropped once its rows are written, so memory does not
grow with the step count.  The fuzzy model's stream reads the engine's
dense grade rows (:func:`model.iter_rows`) directly; no fuzzy set or
vehicle object is built per step.
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
    if getattr(args, "densities", None) is not None:
        config = replace(config, fd=replace(config.fd, densities=_parse_densities(args.densities)))
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "run":
        if not config.outputs:
            raise simio.ScenarioValidationError(
                "scenario.outputs: scenario declares no outputs; nothing to write"
            )
        _write(config, [(spec.kind, out_dir / spec.path) for spec in config.outputs])
    elif args.command == "queue-experiment":
        fallback = f"{stem}_{config.model}_queue.csv"
        _write(config, [_declared(config, "queue", out_dir, fallback)])
    elif args.command == "fundamental-diagram":
        _write(config, [_declared(config, "fundamental", out_dir, f"{stem}_fd.csv")])
    else:  # compare
        _write(replace(config, model="fcm"), [("queue", out_dir / f"{stem}_fcm_queue.csv")])
        target = out_dir / f"{stem}_nasch_queue.csv"
        simio.write_queue_csv(_nasch_histogram(config), target)
        print(f"wrote queue -> {target}")
    return 0


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
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"--densities: {exc}") from exc
    if not values:
        raise ValueError("--densities: empty list")
    return values


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


def _write(config, outputs) -> None:
    """Write the (kind, path) outputs of ``config`` in order; the first
    streamed one writes every streamed output in one :func:`_stream` pass.
    The diagram is swept first, so a rejected sweep writes no file."""
    if any(kind == "fundamental" for kind, _ in outputs):
        points = metrics.sweep_fundamental_diagram(config)
    kinds = ("spacetime", "queue") if config.model == "fcm" else ("spacetime",)
    streamed = [(kind, path) for kind, path in outputs if kind in kinds]
    for kind, path in outputs:
        if kind in kinds:
            if streamed:
                _stream(config, streamed)
                streamed = None
        elif kind == "queue":
            simio.write_queue_csv(_nasch_histogram(config), path)
        else:
            simio.write_fd_csv(points, path)
        print(f"wrote {kind} -> {path}")


def _declared(config, kind, out_dir, fallback):
    """The scenario's first ``kind`` output, else ``fallback``, as (kind, path)."""
    for spec in config.outputs:
        if spec.kind == kind:
            return kind, out_dir / spec.path
    return kind, out_dir / fallback


if __name__ == "__main__":
    raise SystemExit(main())
