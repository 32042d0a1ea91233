"""Command-line behavior: parsing, outputs, overrides, exit codes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import queue_length_reference, queue_state
from fuzzycell import cell_occupancy, defuzz_argmax, model, nasch
from fuzzycell.cli import build_parser, main
from fuzzycell.metrics import empirical_queue_distribution, sweep_fundamental_diagram
from fuzzycell.simio import (
    build_fcm_state,
    build_nasch_state,
    load_scenario,
    queue_rows,
    spacetime_rows,
    write_fd_csv,
    write_queue_csv,
)

SMALL_SCENARIO = """
model: fcm
road_length: 60
boundary: open
steps: 8
alpha: 0.9
epsilon: 0.01
classes:
  - name: car
    length: 0
    v_max: [[2, 0.2], [3, 1.0], [4, 0.2]]
    accel: [[0, 0.2], [1, 1.0], [2, 0.2]]
queue: {class: car, count: 5}
nasch: {v_max: 3, p: 0.2, runs: 6, base_seed: 99}
outputs:
  - {kind: queue, path: small_queue.csv}
  - {kind: spacetime, path: small.pgm}
"""

RING_SCENARIO = """
model: nasch
road_length: 30
boundary: ring
steps: 40
classes:
  - name: car
    length: 1
    v_max: 3
    accel: 1
nasch: {v_max: 3, p: 0.2, runs: 5, base_seed: 7}
fd: {densities: [0.2, 0.5], warmup: 5, window: 20}
"""


@pytest.fixture
def small_scenario(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_SCENARIO)
    return path


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "queue50", "--steps", "10", "--alpha", "0.5"])
    assert args.command == "run" and args.steps == 10 and args.alpha == 0.5
    args = parser.parse_args(["fundamental-diagram", "ring_fd_fcm", "--densities", "0.1,0.2"])
    assert args.densities == "0.1,0.2"
    args = parser.parse_args(["compare", "queue50", "--seed", "3", "--out-dir", "x"])
    assert args.seed == 3 and args.out_dir == "x"


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_missing_scenario_exits_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_run_writes_declared_outputs(small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(small_scenario), "--out-dir", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert (out / "small_queue.csv").exists()
    assert (out / "small.pgm").read_bytes().startswith(b"P5\n60 9\n255\n")
    header = (out / "small_queue.csv").read_text().splitlines()[0]
    assert header == "step,length,grade"


def test_run_simulates_trajectory_once(small_scenario, tmp_path, monkeypatch):
    # the scenario declares a queue and a spacetime output; both are written
    # from one simulated trajectory of 8 engine updates
    calls = []
    update = model._update

    def counted(*args):
        calls.append(1)
        return update(*args)

    monkeypatch.setattr(model, "_update", counted)
    assert main(["run", str(small_scenario), "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 8


def test_output_order_does_not_change_bytes(tmp_path, capsys):
    # one pass writes both outputs; the stdout lines keep the declared order
    swapped = SMALL_SCENARIO.replace(
        "  - {kind: queue, path: small_queue.csv}\n  - {kind: spacetime, path: small.pgm}",
        "  - {kind: spacetime, path: small.pgm}\n  - {kind: queue, path: small_queue.csv}",
    )
    assert swapped != SMALL_SCENARIO
    stdout, data = {}, {}
    for name, text in (("queue_first", SMALL_SCENARIO), ("spacetime_first", swapped)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        out = tmp_path / name
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        stdout[name] = [line.split(" -> ")[0] for line in capsys.readouterr().out.splitlines()]
        data[name] = [(out / f).read_bytes() for f in ("small_queue.csv", "small.pgm")]
    assert stdout["queue_first"] == ["wrote queue", "wrote spacetime"]
    assert stdout["spacetime_first"] == ["wrote spacetime", "wrote queue"]
    assert data["queue_first"] == data["spacetime_first"]


NASCH_SPACETIME = (
    RING_SCENARIO
    + "queue: {class: car, count: 6, spacing: 4}\n"
    + "outputs:\n  - {kind: spacetime, path: ring.pgm}\n"
)


def test_run_streams_nasch_spacetime(tmp_path):
    path = tmp_path / "ring.yaml"
    path.write_text(NASCH_SPACETIME)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    # reference rows: a vehicle's ring cell is its position modulo the road
    config = load_scenario(NASCH_SPACETIME)
    road = config.road_length
    expected = tmp_path / "expected.pgm"
    with spacetime_rows(expected, road, config.steps + 1) as write:
        for state in nasch.iter_states(build_nasch_state(config), config.steps):
            row = np.zeros(road)
            row[state.positions % road] = 1.0
            write(row)
    assert (tmp_path / "ring.pgm").read_bytes() == expected.read_bytes()


def test_run_nasch_spacetime_bytes_are_pinned(tmp_path):
    # the stream test above compares the CLI with nasch.iter_states, so a
    # change to both would pass it; this digest fixes the seeded draws' bytes
    path = tmp_path / "ring.yaml"
    path.write_text(NASCH_SPACETIME)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "ring.pgm").read_bytes()).hexdigest()
    assert digest == "642d2088b2c7e57209facde41944ec93f5bfcb61a91f304d39e79350b8ce870d"


MIXED_FCM_SCENARIO = """
model: fcm
road_length: 24
boundary: {boundary}
steps: 30
alpha: 0.6
epsilon: 0.02
classes:
  - name: car
    length: [[0, 1.0], [1, 0.3]]
    v_max: [[2, 0.2], [3, 1.0], [4, 0.2]]
    accel: [[0, 0.2], [1, 1.0], [2, 0.2]]
  - name: truck
    length: [[1, 1.0], [2, 0.4]]
    v_max: [[1, 0.3], [2, 1.0], [3, 0.3]]
    accel: [[0, 0.5], [1, 1.0]]
fleet:
  - {{class: truck, position: [[1, 0.4], [2, 1.0], [3, 0.2]]}}
  - {{class: car, position: 6, velocity: [[0, 1.0], [2, 0.5]]}}
  - {{class: truck, position: [[11, 1.0], [12, 0.6]], velocity: 1}}
  - {{class: car, position: [[17, 0.5], [18, 1.0]]}}
outputs:
  - {{kind: spacetime, path: mixed.pgm}}
  - {{kind: queue, path: mixed_queue.csv}}
"""


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_run_streams_fcm_rows_as_the_state_writers(tmp_path, boundary):
    # the stream reads engine rows; its bytes equal rows built per state
    # from the fuzzy sets: the cell occupancy maximum and the prefix rule
    text = MIXED_FCM_SCENARIO.format(boundary=boundary)
    path = tmp_path / "mixed.yaml"
    path.write_text(text)
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    config = load_scenario(text)
    road = config.road_length
    slots = [defuzz_argmax(e.position) for e in config.fleet]
    with (
        spacetime_rows(tmp_path / "expected.pgm", road, config.steps + 1) as write_row,
        queue_rows(tmp_path / "expected.csv", "grade") as write_queue,
    ):
        for state in model.iter_states(build_fcm_state(config), config.steps):
            write_row([max(cell_occupancy(state, c).values(), default=0.0) for c in range(road)])
            write_queue(queue_length_reference(state, slots))
    assert (tmp_path / "mixed.pgm").read_bytes() == (tmp_path / "expected.pgm").read_bytes()
    assert (tmp_path / "mixed_queue.csv").read_text() == (tmp_path / "expected.csv").read_text()


RING_FCM_SCENARIO = """
model: fcm
road_length: 100
boundary: ring
steps: 10
classes:
  - name: car
    length: 1
    v_max: [[2, 0.3], [3, 1.0], [4, 0.3]]
    accel: [[0, 0.3], [1, 1.0], [2, 0.3]]
queue: {class: car, count: 5, spacing: 20}
outputs:
  - {kind: spacetime, path: ring.pgm}
  - {kind: queue, path: ring_queue.csv}
"""


def test_run_memory_does_not_grow_with_steps(tmp_path):
    # outputs are streamed: the peak holds a few states, not a trajectory
    path = tmp_path / "ring.yaml"
    path.write_text(RING_FCM_SCENARIO)

    def peak(steps):
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--out-dir", str(tmp_path), "--steps", str(steps)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call caches are not part of the bound
    (short_code, short), (long_code, long) = peak(200), peak(2000)
    assert short_code == long_code == 0
    assert long < 1.25 * short + 2**18
    assert (tmp_path / "ring.pgm").read_bytes().startswith(b"P5\n100 2001\n255\n")


def test_fundamental_diagram_on_open_road_exits_1(tmp_path, capsys):
    code = main(["fundamental-diagram", "queue50", "--densities", "0.1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "ring" in capsys.readouterr().err


def test_run_without_outputs_fails(tmp_path, capsys):
    path = tmp_path / "bare.yaml"
    path.write_text(SMALL_SCENARIO.split("outputs:")[0])
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
    assert "outputs" in capsys.readouterr().err


def test_queue_experiment_nasch_histogram(tmp_path):
    path = tmp_path / "ring.yaml"
    path.write_text(RING_SCENARIO.replace("boundary: ring", "boundary: open"))
    code = main(["queue-experiment", str(path), "--out-dir", str(tmp_path), "--steps", "12"])
    assert code == 0
    text = (tmp_path / "ring_nasch_queue.csv").read_text()
    assert text.splitlines()[0] == "step,length,probability"


def test_fundamental_diagram_densities_override(tmp_path):
    path = tmp_path / "ring.yaml"
    path.write_text(RING_SCENARIO)
    code = main(
        ["fundamental-diagram", str(path), "--out-dir", str(tmp_path), "--densities", "0.3"]
    )
    assert code == 0
    lines = (tmp_path / "ring_fd.csv").read_text().splitlines()
    assert lines[0] == "density,flow,probability"
    assert all(line.startswith("0.3,") for line in lines[1:])


def test_bad_densities_exit_1(tmp_path):
    path = tmp_path / "ring.yaml"
    path.write_text(RING_SCENARIO)
    assert main(["fundamental-diagram", str(path), "--densities", "abc"]) == 1
    assert main(["fundamental-diagram", str(path), "--densities", "1.7"]) == 1
    assert main(["fundamental-diagram", str(path), "--densities", ","]) == 1


@pytest.mark.parametrize(
    "text, wrote",
    [
        (
            RING_FCM_SCENARIO + "  - {kind: fundamental, path: fd.csv}\n"
            + "fd: {densities: [0.2, 0.5], warmup: 5, window: 10}\n",
            ["spacetime", "queue", "fundamental"],
        ),
        (
            RING_SCENARIO.replace("window: 20", "window: 10")
            + "queue: {class: car, count: 6, spacing: 4}\n"
            + "outputs:\n  - {kind: queue, path: queue.csv}\n"
            + "  - {kind: spacetime, path: ring.pgm}\n  - {kind: fundamental, path: fd.csv}\n",
            ["queue", "spacetime", "fundamental"],
        ),
    ],
    ids=["fcm", "nasch"],
)
def test_run_writes_diagram_and_ensemble_outputs(tmp_path, capsys, text, wrote):
    # run writes a declared fundamental output, and a nasch queue output
    # from the ensemble, with the bytes the library functions give
    path = tmp_path / "ring.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" -> ")[0] for line in lines] == [f"wrote {kind}" for kind in wrote]
    config = load_scenario(text)
    assert (config.fd.densities, config.fd.warmup, config.fd.window) == ((0.2, 0.5), 5, 10)
    write_fd_csv(sweep_fundamental_diagram(config), tmp_path / "fd.csv")
    assert (out / "fd.csv").read_bytes() == (tmp_path / "fd.csv").read_bytes()
    if config.model == "nasch":
        ns = config.nasch
        ensemble = nasch.monte_carlo(build_nasch_state(config), config.steps, ns.runs, ns.base_seed)
        write_queue_csv(empirical_queue_distribution(ensemble), tmp_path / "queue.csv")
        assert (out / "queue.csv").read_bytes() == (tmp_path / "queue.csv").read_bytes()


TWO_OUTPUTS = """
model: fcm
road_length: 30
boundary: {boundary}
steps: 20
classes:
  - {{name: car, length: 1, v_max: 3, accel: 1}}
queue: {{class: car, count: 4, spacing: 3}}
outputs:
  - {{kind: spacetime, path: two.pgm}}
  - {{kind: fundamental, path: two_fd.csv}}
"""


@pytest.mark.parametrize(
    "boundary, err",
    [
        ("open", "scenario.boundary: fundamental diagrams need a ring road, not boundary 'open'"),
        ("ring", "scenario.fd.densities: no densities configured for the diagram sweep"),
    ],
    ids=["open", "no_densities"],
)
def test_run_rejects_a_diagram_before_writing_any_output(tmp_path, capsys, boundary, err):
    path = tmp_path / "two.yaml"
    path.write_text(TWO_OUTPUTS.format(boundary=boundary))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert not any(out.iterdir())


def test_compare_writes_both(small_scenario, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(small_scenario), "--out-dir", str(out)])
    assert code == 0
    fuzzy = (out / "small_fcm_queue.csv").read_text()
    baseline = (out / "small_nasch_queue.csv").read_text()
    assert fuzzy.splitlines()[1] == "0,5,1.0"
    assert baseline.splitlines()[1] == "0,5,1.0"


def test_compare_nasch_site_count_scenario(tmp_path):
    # compare runs the scenario as model fcm; the estimator is a diagram setting
    text = RING_SCENARIO.replace("window: 20}", "window: 20, estimator: site_count}")
    text += "queue: {class: car, count: 6, spacing: 4}\n"
    path = tmp_path / "ring.yaml"
    path.write_text(text)
    assert main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "ring_fcm_queue.csv").exists()
    assert (tmp_path / "ring_nasch_queue.csv").exists()


def test_compare_without_nasch_block_uses_default_settings(tmp_path):
    path = tmp_path / "small.yaml"
    text = SMALL_SCENARIO.replace("nasch: {v_max: 3, p: 0.2, runs: 6, base_seed: 99}\n", "")
    assert "nasch" not in text
    path.write_text(text)
    assert main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
    initial = queue_state(5, 60, v_max=3, p=0.2)
    hist = empirical_queue_distribution(nasch.monte_carlo(initial, 8, 200, 13000))
    write_queue_csv(hist, tmp_path / "expected.csv")
    written = (tmp_path / "small_nasch_queue.csv").read_text()
    assert written == (tmp_path / "expected.csv").read_text()


@pytest.mark.parametrize(
    "flag, value, field, scenario",
    [
        *(
            (flag, value, field, scenario)
            for scenario in ("single_vehicle_a09", "ring_fd_nasch")
            for flag, value, field in (
                ("--steps", "0", "steps"), ("--alpha", "1.5", "alpha"), ("--alpha", "-0.1", "alpha")
            )
        ),
        ("--densities", "1.5", "fd.densities", "ring_fd_fcm"),
    ],
)
def test_bad_override_exits_1(flag, value, field, scenario, tmp_path, capsys):
    command = "fundamental-diagram" if flag == "--densities" else "run"
    assert main([command, scenario, flag, value, "--out-dir", str(tmp_path)]) == 1
    assert f"scenario.{field}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_integer_beyond_int64_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.yaml"
    path.write_text(SMALL_SCENARIO.replace("road_length: 60", f"road_length: {10**20}"))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: scenario.road_length: value outside the int64 range\n"
    assert not (tmp_path / "out").exists()


def test_out_dir_from_environment(small_scenario, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("FUZZYCELL_OUT_DIR", str(target))
    assert main(["run", str(small_scenario)]) == 0
    assert (target / "small_queue.csv").exists()


def test_steps_override_changes_output(small_scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(small_scenario), "--out-dir", str(a), "--steps", "3"])
    main(["run", str(small_scenario), "--out-dir", str(b), "--steps", "6"])
    assert (a / "small.pgm").read_bytes() != (b / "small.pgm").read_bytes()
    assert (a / "small.pgm").read_bytes().startswith(b"P5\n60 4\n")


def test_alpha_override_changes_position_grades(small_scenario, tmp_path):
    # alpha drives the position dilation, so the space-time image differs;
    # queue grades are pinned by the velocity memberships and stay put
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(small_scenario), "--out-dir", str(a), "--alpha", "0.9"])
    main(["run", str(small_scenario), "--out-dir", str(b), "--alpha", "0.1"])
    assert (a / "small.pgm").read_bytes() != (b / "small.pgm").read_bytes()
    assert (a / "small_queue.csv").read_text() == (b / "small_queue.csv").read_text()


def test_seed_override_changes_ensemble(small_scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["compare", str(small_scenario), "--out-dir", str(a), "--seed", "1"])
    main(["compare", str(small_scenario), "--out-dir", str(b), "--seed", "2"])
    assert (a / "small_nasch_queue.csv").read_text() != (b / "small_nasch_queue.csv").read_text()
    assert (a / "small_fcm_queue.csv").read_text() == (b / "small_fcm_queue.csv").read_text()


def test_bundled_scenario_by_name(tmp_path):
    assert main(["run", "single_vehicle_a09", "--out-dir", str(tmp_path), "--steps", "5"]) == 0
    assert (tmp_path / "single_vehicle_a09.pgm").exists()
