"""One benchmark sample, run by run.py in a process of its own.

Usage: python3 bench/sample.py SPEC_JSON

SPEC_JSON names the source tree to import, the workload, its inputs and
whether to trace.  The sample writes one JSON object to ``spec["result"]``:
the CLOCK_MONOTONIC time of the first simulated step (``t_first``) and of
the end of the work (``t_end``), the workload's exit code, the number of
oracle mismatches and, when traced, the per-layer metrics.

A CLI workload calls ``fuzzycell.cli.main``.  Untraced, the
instrumentation is a one-shot stamp on the first call into an engine
entry point, which removes itself, and the host-speed probe of
``calibrate.py``, whose probes go into the result as ``probes``.  The
``fuzzy_ops`` workload calls the public ``fuzznum`` and ``model``
functions directly and checks every result against the reference
outside the timed region.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

SPEC = json.loads(sys.argv[1])
sys.path.insert(0, SPEC["src"])

import numpy as np  # noqa: E402

from calibrate import SpeedProbe  # noqa: E402

# the probe samples host speed from here on, through set-up and work
PROBE = None if SPEC["trace"] else SpeedProbe(arrays=SPEC.get("probe_arrays", False))
if PROBE is not None:
    PROBE.start()

import tracer as tr  # noqa: E402
from fuzzycell import cli, fuzznum, model  # noqa: E402

# calls that start the simulation; the first of them ends set-up
ENGINE = ("model.step", "model.run_ring", "nasch.monte_carlo")


def main() -> int:
    if not Path(fuzznum.__file__).resolve().is_relative_to(Path(SPEC["src"]).resolve()):
        print(f"fuzzycell imported from {fuzznum.__file__}, not {SPEC['src']}", file=sys.stderr)
        return 3
    tracer = tr.Tracer(OBSERVERS) if SPEC["trace"] else None
    if SPEC["workload"] == "fuzzy_ops":
        result = run_fuzzy_ops(SPEC["seed"], tracer)
    else:
        result = run_cli(SPEC["argv"] + ["--out-dir", SPEC["out_dir"]], tracer)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, SPEC.get("ring_labels", {}))
        Path(SPEC["spans"]).write_text(json.dumps(tracer.spans))
    if PROBE is not None:
        PROBE.stop()
        result.update(probes=PROBE.probes, probe_ref_s=PROBE.ref_s)
    result["numpy"] = np.__version__
    Path(SPEC["result"]).write_text(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli(argv, tracer):
    if tracer is not None:
        tracer.install()
        code = cli.main(argv)
        t_end = tr.now()
        tracer.uninstall()
        t_first = min(
            (s[tr.START] for s in tracer.spans if s[tr.NAME] in ENGINE), default=t_end
        )
    else:
        stamp = stamp_first_engine_call()
        code = cli.main(argv)
        t_end = tr.now()
        t_first = stamp.get("t", t_end)
    return {"t_first": t_first, "t_end": t_end, "exit_code": code, "mismatches": 0}


def stamp_first_engine_call() -> dict:
    """Record when the first engine call starts, then unwrap everything."""
    modules = tr.package_modules()
    funcs = dict(tr.public_functions(modules))
    stamp: dict = {}
    bindings: list = []

    def stamped(func):
        def first_call(*args, **kwargs):
            stamp.setdefault("t", tr.now())
            tr.restore(bindings)
            return func(*args, **kwargs)

        return first_call

    for name in ENGINE:
        func = funcs[name]
        bindings.append((func, tr.rebind(func, stamped(func), modules)))
    return stamp


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _support_cells(state) -> int:
    return sum(int(v.position.values[-1]) - int(v.position.values[0]) + 1 for v in state.vehicles)


OBSERVERS = {
    "model.step": lambda a, k, r: {"vehicles": len(a[0].vehicles)},
    "model.run_ring": lambda a, k, r: {
        "vehicles": len(a[0].vehicles),
        "steps": _arg(a, k, 1, "steps"),
    },
    "model.trajectory": lambda a, k, r: {"support_cells_final": _support_cells(r[-1])},
    # computed from the shape of the (runs, steps, vehicles) float64 draw buffer
    "nasch.monte_carlo": lambda a, k, r: {
        "run_steps": r.runs * r.steps,
        "draw_buffer_mb": r.runs * r.steps * a[0].positions.size * 8 / 2**20,
    },
}


def layer_metrics(tracer, ring_labels) -> dict:
    """Per-layer metrics of one traced sample; absent names read 0 later."""
    stats = tr.summarize(tracer.spans)

    def stat(name, key="s", tag=None):
        return stats.get((name, tag), {}).get(key, 0)

    def extras(name):
        return [s[tr.EXTRA] for s in tracer.spans if s[tr.NAME] == name and s[tr.EXTRA]]

    out = {"trace.spans": len(tracer.spans)}
    for name in ("model.step", "model.trajectory", "model.run_ring",
                 "metrics.queue_length", "nasch.monte_carlo"):
        out[f"{name}.calls"] = stat(name, "calls")
    for name in ("metrics.queue_series", "simio.fcm_membership_frames",
                 "simio.write_spacetime", "simio.write_queue_csv", "simio.write_fd_csv",
                 "simio.load_scenario", "simio.build_fcm_state", "simio.build_nasch_state",
                 "model.ring_state", "nasch.ring_uniform", "model.run_ring",
                 "nasch.monte_carlo", "metrics.sweep_fundamental_diagram"):
        out[f"{name}.s"] = stat(name)
    for name in ("model.step", "metrics.sweep_fundamental_diagram", "cli.main"):
        out[f"{name}.self_s"] = stat(name, "self_s")

    vehicles = sum(e["vehicles"] for e in extras("model.step"))
    if vehicles:
        out["model.step.us_per_vehicle"] = 1e6 * stat("model.step") / vehicles
    finals = extras("model.trajectory")
    if finals:
        out["model.state.support_cells_final"] = finals[-1]["support_cells_final"]

    ring_spans = [s for s in tracer.spans if s[tr.NAME] == "model.run_ring"]
    work = sum(s[tr.EXTRA]["vehicles"] * s[tr.EXTRA]["steps"] for s in ring_spans)
    if work:
        out["model.run_ring.us_per_vehicle_step"] = 1e6 * stat("model.run_ring") / work
    for s in ring_spans:
        label = ring_labels.get(str(s[tr.EXTRA]["vehicles"]))
        if label is not None:
            seconds = s[tr.END] - s[tr.START]
            out[f"model.run_ring.{label}.s"] = seconds
            out[f"model.run_ring.{label}.us_per_vehicle_step"] = (
                1e6 * seconds / (s[tr.EXTRA]["vehicles"] * s[tr.EXTRA]["steps"])
            )

    draws = extras("nasch.monte_carlo")
    if draws:
        run_steps = sum(e["run_steps"] for e in draws)
        out["nasch.monte_carlo.us_per_run_step"] = 1e6 * stat("nasch.monte_carlo") / run_steps
        out["nasch.monte_carlo.draw_buffer_mb"] = max(e["draw_buffer_mb"] for e in draws)

    for op in ("ext_add", "ext_sub", "ext_min"):
        for band in ("small", "wide"):
            calls = stat(f"fuzznum.{op}", "calls", band)
            if calls:
                out[f"fuzznum.{op}.us_{band}"] = 1e6 * stat(f"fuzznum.{op}", tag=band) / calls
    for name in ("fuzznum.dilate", "fuzznum.truncate", "fuzznum.wrap_mod",
                 "model.gap", "model.update_velocity", "model.advance_position"):
        calls = stat(name, "calls")
        if calls:
            out[f"{name}.us"] = 1e6 * stat(name) / calls
    return out


# ---------------------------------------------------------------------------
# fuzzy_ops: library and reference-op path

# Operand support sizes.  The small band stays within fuzznum's dict path
# (at most 256 support pairs), the wide band takes the numpy path.  Sizes
# are fixed so that the seed changes values and grades but not the work.
SMALL_SIZES = [(2, 3), (3, 5), (4, 4), (2, 16), (6, 8), (8, 8), (5, 20), (12, 16), (16, 16)] * 20
WIDE_SIZES = [(17, 16), (24, 24), (32, 40), (48, 48), (64, 32), (80, 80)] * 8
REPEATS = 15
FLEET_STEPS = 12
RING_LENGTH = 90
ALPHA, EPSILON = 0.85, 0.01


def _operand(rng, size):
    lo = int(rng.integers(-40, 40))
    values = np.sort(rng.choice(2 * size, size=size, replace=False)) + lo
    grades = rng.uniform(0.05, 1.0, size)
    grades[rng.integers(size)] = 1.0
    return fuzznum.make_fuzzy(zip(values.tolist(), grades.tolist()))


def _pairs(rng, sizes):
    return [(_operand(rng, a), _operand(rng, b)) for a, b in sizes]


def _mixed_fleet(rng) -> "model.FcmState":
    """Twelve vehicles of three classes on a ring, fuzzy positions and speeds."""
    fz = fuzznum.make_fuzzy
    classes = [
        model.VehicleClass("car", fz([(0, 1.0)]), fz([(2, 0.2), (3, 1.0), (4, 0.2)]),
                           fz([(0, 0.2), (1, 1.0), (2, 0.2)])),
        model.VehicleClass("truck", fz([(1, 1.0), (2, 0.4)]), fz([(1, 0.3), (2, 1.0), (3, 0.3)]),
                           fz([(0, 0.5), (1, 1.0)])),
        model.VehicleClass("van", fz([(0, 1.0), (1, 0.3)]), fz([(3, 0.5), (4, 1.0), (5, 0.5)]),
                           fz([(1, 1.0), (2, 0.3)])),
    ]
    count = 12
    vehicles = []
    for i in range(count):
        core = i * RING_LENGTH // count + 1 + int(rng.integers(0, 3))
        g = rng.uniform(0.1, 0.9, 3).round(3).tolist()
        position = fz([(core - 1, g[0]), (core, 1.0), (core + 1, g[1])])
        velocity = fz([(0, 1.0), (1, g[2])])
        vehicles.append(model.FcmVehicle(i, classes[i % 3], position, velocity))
    return model.FcmState(tuple(vehicles), RING_LENGTH, "ring", ALPHA, EPSILON)


def _reference_step(state, span):
    """One parallel update composed from the reference per-vehicle ops."""
    n = len(state.vehicles)
    with span("model.gap", None, n):
        for i in range(n):
            model.gap(state, i)
    with span("model.update_velocity", None, n):
        velocities = [model.update_velocity(state, i) for i in range(n)]
    exponents = [
        model.dilation_exponent(v, veh.vclass.v_max, state.alpha)
        for v, veh in zip(velocities, state.vehicles)
    ]
    with span("model.advance_position", None, n):
        positions = [
            model.advance_position(veh.position, v, e, state.epsilon, state.road_length)
            for veh, v, e in zip(state.vehicles, velocities, exponents)
        ]
    vehicles = tuple(
        model.FcmVehicle(veh.index, veh.vclass, p, v)
        for veh, p, v in zip(state.vehicles, positions, velocities)
    )
    return model.FcmState(vehicles, state.road_length, state.boundary, state.alpha,
                          state.epsilon, state.step + 1)


def run_fuzzy_ops(seed, tracer):
    rng = np.random.default_rng(seed)
    bands = {"small": _pairs(rng, SMALL_SIZES), "wide": _pairs(rng, WIDE_SIZES)}
    operands = [x for pairs in bands.values() for pair in pairs for x in pair]
    unary_args = [
        (float(rng.uniform(0.3, 0.95)), float(rng.uniform(0.05, 0.6)),
         int(rng.integers(len(a) // 2 + 2, 2 * len(a) + 2)))
        for a in operands
    ]
    fleet = _mixed_fleet(rng)
    span = tracer.span if tracer is not None else (lambda *_args: nullcontext())
    binary = (("ext_add", fuzznum.ext_add), ("ext_sub", fuzznum.ext_sub),
              ("ext_min", fuzznum.ext_min))

    t_first = tr.now()
    results = []
    for _ in range(REPEATS):
        rep = {}
        for band, pairs in bands.items():
            for name, op in binary:
                with span(f"fuzznum.{name}", band, len(pairs)):
                    rep[name, band] = [op(a, b) for a, b in pairs]
        with span("fuzznum.dilate", None, len(operands)):
            rep["dilate"] = [fuzznum.dilate(a, u[0]) for a, u in zip(operands, unary_args)]
        with span("fuzznum.truncate", None, len(operands)):
            rep["truncate"] = [fuzznum.truncate(a, u[1]) for a, u in zip(operands, unary_args)]
        with span("fuzznum.wrap_mod", None, len(operands)):
            rep["wrap_mod"] = [fuzznum.wrap_mod(a, u[2]) for a, u in zip(operands, unary_args)]
        states = [fleet]
        for _ in range(FLEET_STEPS):
            states.append(_reference_step(states[-1], span))
        rep["states"] = states
        results.append(rep)
    t_end = tr.now()

    mismatches = _check_fuzzy_ops(results, bands, operands, unary_args)
    ops = REPEATS * (3 * len(operands) // 2 + 3 * len(operands)
                     + 3 * FLEET_STEPS * len(fleet.vehicles))
    return {"t_first": t_first, "t_end": t_end, "exit_code": 0, "mismatches": mismatches,
            "ops": ops, "vehicle_steps": REPEATS * FLEET_STEPS * len(fleet.vehicles)}


def _check_fuzzy_ops(results, bands, operands, unary_args) -> int:
    """Count results that differ from the oracle or from ``model.step``."""
    expected = {}
    for band, pairs in bands.items():
        for name, op in (("ext_add", "add"), ("ext_sub", "sub"), ("ext_min", "min")):
            expected[name, band] = [fuzznum.oracle_ext_op(op, a, b) for a, b in pairs]
    expected["dilate"] = [_ref_dilate(a, u[0]) for a, u in zip(operands, unary_args)]
    expected["truncate"] = [_ref_truncate(a, u[1]) for a, u in zip(operands, unary_args)]
    expected["wrap_mod"] = [_ref_wrap(a, u[2]) for a, u in zip(operands, unary_args)]
    engine = [results[0]["states"][0]]
    for _ in range(FLEET_STEPS):
        engine.append(model.step(engine[-1]))
    mismatches = 0
    for rep in results:
        for key, want in expected.items():
            mismatches += sum(got != ref for got, ref in zip(rep[key], want))
        for ref_state, eng_state in zip(rep["states"], engine):
            mismatches += sum(
                a.position != b.position or a.velocity != b.velocity
                for a, b in zip(ref_state.vehicles, eng_state.vehicles)
            )
    return mismatches


def _from_map(best):
    pairs = sorted((v, g) for v, g in best.items() if g > 0.0)
    return fuzznum.make_fuzzy(pairs)


def _ref_dilate(a, e):
    # numpy's vectorised power can differ from libm pow in the last bit;
    # the program's dilation is defined by numpy's, so use it per grade
    return _from_map({v: float(np.power(g, e)) for v, g in a.to_pairs()})


def _ref_truncate(a, epsilon):
    floor = min(epsilon, max(g for _, g in a.to_pairs()))
    return _from_map({v: g for v, g in a.to_pairs() if g >= floor})


def _ref_wrap(a, modulus):
    best: dict = {}
    for v, g in a.to_pairs():
        best[v % modulus] = max(best.get(v % modulus, 0.0), g)
    return _from_map(best)


if __name__ == "__main__":
    sys.exit(main())
