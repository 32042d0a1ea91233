"""Command-line behavior: parsing, outputs, overrides, exit codes."""

import pytest

from fuzzycell import model
from fuzzycell.cli import build_parser, main

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
    # the scenario declares a queue and a spacetime output; both read one
    # simulated trajectory
    calls = []
    trajectory = model.trajectory

    def counted(state, steps):
        calls.append(steps)
        return trajectory(state, steps)

    monkeypatch.setattr(model, "trajectory", counted)
    assert main(["run", str(small_scenario), "--out-dir", str(tmp_path)]) == 0
    assert calls == [8]


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


def test_compare_writes_both(small_scenario, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(small_scenario), "--out-dir", str(out)])
    assert code == 0
    fuzzy = (out / "small_fcm_queue.csv").read_text()
    baseline = (out / "small_nasch_queue.csv").read_text()
    assert fuzzy.splitlines()[1] == "0,5,1.0"
    assert baseline.splitlines()[1] == "0,5,1.0"


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
