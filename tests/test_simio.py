"""Scenario loading/serialization, CSV and PGM output."""

import copy
import hashlib
from dataclasses import MISSING, fields, replace
from functools import reduce
from importlib import resources
from operator import getitem

import hypothesis.strategies as hs
import numpy as np
import pytest
import yaml
from hypothesis import given, settings

from conftest import queue_state
from fuzzycell import crisp, make_fuzzy
from fuzzycell.metrics import FdPoint, NaschFdPoint
from fuzzycell.model import VehicleClass
from fuzzycell.simio import (
    FdSettings,
    FleetEntry,
    NaschSettings,
    OutputSpec,
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    build_fcm_state,
    build_nasch_state,
    builtin_scenarios,
    dump_scenario,
    load_builtin,
    load_scenario,
    nasch_occupancy_row,
    queue_rows,
    spacetime_rows,
    write_fd_csv,
    write_queue_csv,
)

MINIMAL = """
model: fcm
road_length: 50
steps: 5
classes:
  - name: car
    length: 0
    v_max: [[2, 0.2], [3, 1.0], [4, 0.2]]
    accel: [[0, 0.2], [1, 1.0], [2, 0.2]]
fleet:
  - {class: car, position: 0}
"""


# ---------------------------------------------------------------------------
# loading and validation


def test_load_minimal_defaults():
    cfg = load_scenario(MINIMAL)
    assert cfg.model == "fcm"
    assert cfg.boundary == "open"
    assert cfg.alpha == 0.9 and cfg.epsilon == 0.01
    assert cfg.fleet[0].position == crisp(0)
    assert cfg.fleet[0].velocity == crisp(0)
    assert cfg.classes[0].v_max == make_fuzzy([(2, 0.2), (3, 1.0), (4, 0.2)])


def test_builtin_single_vehicle_scenario():
    cfg = load_builtin("single_vehicle_a09")
    assert cfg.alpha == 0.9
    assert len(cfg.fleet) == 1
    assert cfg.fleet[0].position == crisp(0)
    assert cfg.classes[0].v_max == make_fuzzy([(4, 0.2), (5, 1.0), (6, 0.2)])
    assert cfg.classes[0].accel == make_fuzzy([(0, 0.2), (1, 1.0), (2, 0.2)])
    assert cfg.classes[0].length == crisp(0)


def test_builtin_queue50_expands_fleet():
    cfg = load_builtin("queue50")
    assert len(cfg.fleet) == 50
    assert [e.position for e in cfg.fleet] == [crisp(n) for n in range(50)]
    assert cfg.nasch.v_max == 3 and cfg.nasch.p == 0.2 and cfg.nasch.runs == 200
    assert cfg.classes[0].v_max == make_fuzzy([(2, 0.2), (3, 1.0), (4, 0.2)])


def test_builtin_listing():
    names = builtin_scenarios()
    for expected in (
        "queue50",
        "ring_fd_fcm",
        "ring_fd_nasch",
        "single_vehicle_a01",
        "single_vehicle_a09",
    ):
        assert expected in names


def test_bad_grade_is_named_in_error():
    text = MINIMAL.replace("[3, 1.0]", "[3, 1.5]")
    with pytest.raises(ScenarioValidationError, match="BadGrade"):
        load_scenario(text)


def test_parse_error_for_bad_yaml():
    with pytest.raises(ScenarioParseError):
        load_scenario("model: [unclosed")


def test_parse_error_names_missing_field():
    with pytest.raises(ScenarioParseError, match="road_length"):
        load_scenario("model: fcm\nsteps: 3\nclasses: [{name: c, length: 0, v_max: 1, accel: 1}]")


def test_parse_error_names_wrong_type():
    with pytest.raises(ScenarioParseError, match="scenario.steps"):
        load_scenario(MINIMAL.replace("steps: 5", "steps: few"))


def test_validation_unknown_class():
    with pytest.raises(ScenarioValidationError, match="unknown class"):
        load_scenario(MINIMAL.replace("{class: car, position: 0}", "{class: bus, position: 0}"))


def test_validation_steps_positive():
    with pytest.raises(ScenarioValidationError, match="steps"):
        load_scenario(MINIMAL.replace("steps: 5", "steps: 0"))


def test_validation_ring_bounds():
    text = MINIMAL.replace("road_length: 50", "road_length: 50\nboundary: ring").replace(
        "position: 0", "position: 50"
    )
    with pytest.raises(ScenarioValidationError, match="ring"):
        load_scenario(text)


def test_validation_nasch_needs_crisp_fleet():
    text = MINIMAL.replace("model: fcm", "model: nasch").replace(
        "position: 0", "position: [[0, 0.5], [1, 1.0]]"
    )
    with pytest.raises(ScenarioValidationError, match="crisp"):
        load_scenario(text)


def test_validation_estimator():
    text = MINIMAL + "fd: {densities: [0.5], estimator: site_count}\n"
    with pytest.raises(ScenarioValidationError, match="site_count"):
        load_scenario(text)


def test_validation_output_kind():
    text = MINIMAL + "outputs: [{kind: video, path: x.mp4}]\n"
    with pytest.raises(ScenarioValidationError, match="video"):
        load_scenario(text)


@pytest.mark.parametrize(
    "text, field",
    [
        (MINIMAL.replace("road_length: 50", "road_length: 0"), "scenario.road_length"),
        (MINIMAL + "nasch: {base_seed: -3}\n", "scenario.nasch.base_seed"),
        (MINIMAL + "fd: {densities: [0.5], nasch_threshold: 1.5}\n", "scenario.fd.nasch_threshold"),
        (MINIMAL + "fd: {densities: [0.5], nasch_threshold: -0.1}\n", "scenario.fd.nasch_threshold"),
    ],
    ids=["road_length", "base_seed", "threshold_above_1", "threshold_below_0"],
)
def test_validation_names_the_out_of_range_field(text, field):
    with pytest.raises(ScenarioValidationError, match=field.replace(".", r"\.")):
        load_scenario(text)


def test_config_replace_checks_the_new_ranges():
    cfg = load_builtin("ring_fd_nasch")
    with pytest.raises(ScenarioValidationError, match="road_length"):
        replace(cfg, road_length=0)
    with pytest.raises(ScenarioValidationError, match="base_seed"):
        replace(cfg, nasch=replace(cfg.nasch, base_seed=-1))
    with pytest.raises(ScenarioValidationError, match="nasch_threshold"):
        replace(cfg, fd=replace(cfg.fd, nasch_threshold=1.5))
    assert replace(cfg, fd=replace(cfg.fd, nasch_threshold=1.0)).fd.nasch_threshold == 1.0


def test_queue_shorthand_requires_known_class():
    text = MINIMAL + "queue: {class: bus, count: 3}\n"
    with pytest.raises(ScenarioValidationError, match="bus"):
        load_scenario(text)


@pytest.mark.parametrize(
    "name",
    ["single_vehicle_a09", "single_vehicle_a01", "queue50", "ring_fd_fcm", "ring_fd_nasch"],
)
def test_round_trip_builtin(name):
    cfg = load_builtin(name)
    assert load_scenario(dump_scenario(cfg)) == cfg


# sha256 of dump_scenario(load_builtin(name)): the document form of every
# bundled scenario, key order and number formats included.
DUMP_DIGESTS = {
    "queue50": "465fff70b5bb291a5bffb87b9c6845047a68ded52b33ff9d142abebbb6dc6050",
    "ring_fd_fcm": "45a7cd9e67bb4e6ed49faaa2dd8e3e6c44b3c6ba8c3745445e952b0a6729da86",
    "ring_fd_nasch": "e34da39eabbd71f78808ca9cecee146a9f951c6d926b8111c2aaad8d8da32fa8",
    "single_vehicle_a01": "991ed843ad1ccb44fed9c1c592a94675f218de2100f959243696f654b1a73512",
    "single_vehicle_a09": "9ba4b054d482ccb0087b4022ac656d29773b2efa76dbeddbece2211eca0d75b0",
}


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dump_bytes_of_builtin(name):
    text = dump_scenario(load_builtin(name))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[name]


def test_config_without_outputs_round_trips():
    cfg = replace(load_builtin("queue50"), outputs=())
    assert load_scenario(dump_scenario(cfg)) == cfg


# A configuration that sets every field of every config type away from
# its default, so that its dump writes every key the schema has.
FULL = ScenarioConfig(
    model="nasch",
    road_length=40,
    boundary="ring",
    steps=7,
    alpha=0.5,
    epsilon=0.02,
    classes=(VehicleClass("truck", crisp(1), crisp(2), crisp(1)),),
    fleet=(FleetEntry("truck", crisp(3), crisp(1)),),
    nasch=NaschSettings(v_max=2, p=0.3, runs=5, base_seed=7),
    fd=FdSettings(
        densities=(0.2, 0.5), warmup=3, window=9, estimator="site_count",
        nasch_threshold=0.2, theta=0.9,
    ),
    outputs=(OutputSpec("queue", "q.csv"),),
)
FULL_DOC = yaml.safe_load(dump_scenario(FULL))


def _key_paths(node, path=()):
    """Every mapping key in a loaded document, as a path of keys and indexes."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from _key_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, (*path, i))


def _dotted(path):
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def test_full_config_sets_every_field():
    for config in (FULL, FULL.nasch, FULL.fd):
        for f in fields(config):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            assert getattr(config, f.name) != default, f"{type(config).__name__}.{f.name}"


@pytest.mark.parametrize("key_path", list(_key_paths(FULL_DOC)), ids=_dotted)
def test_every_dumped_key_loads_and_its_misspelling_is_rejected(key_path):
    doc = copy.deepcopy(FULL_DOC)
    assert load_scenario(yaml.safe_dump(doc, sort_keys=False)) == FULL
    *path, key = key_path
    mapping = doc
    for k in path:
        mapping = mapping[k]
    misspelled = key + key[-1]
    mapping[misspelled] = mapping.pop(key)
    with pytest.raises(ScenarioParseError) as caught:
        load_scenario(yaml.safe_dump(doc, sort_keys=False))
    assert str(caught.value) == f"{_dotted(path)}.{misspelled}: unknown field"


BUNDLED_DOCS = [
    yaml.safe_load((resources.files("fuzzycell") / "scenarios" / f"{name}.yaml").read_text())
    for name in builtin_scenarios()
]

# Values that break a field's type or range: the integers just beyond
# int64 first, then its limits, NaN and infinities, booleans, strings,
# an empty list and malformed [value, grade] pairs.
EDGE_VALUES = [
    2**63, -(2**63) - 1, 2**63 - 1, -(2**63), float("nan"), float("inf"), float("-inf"),
    True, False, None, 0, -1, "", "car", [], [[1]], [[1, 0.5, 2]], [["1", 1.0]],
    [[1, True]], [[1, -0.5]], [[1, 2.0]], [[1, float("nan")]], [[1.5, 1.0]],
]


def _leaf_paths(node, path=()):
    """Every scalar in a loaded document, as a path of keys and indexes."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(value, (*path, key))
    else:
        yield path


@hs.composite
def mutated_documents(draw):
    """A bundled document with one to three scalars replaced by edge
    values, or, in one example of four, with one key deleted."""
    doc = copy.deepcopy(draw(hs.sampled_from(BUNDLED_DOCS)))
    if draw(hs.integers(0, 3)) == 0:
        *path, key = draw(hs.sampled_from(list(_key_paths(doc))))
        del reduce(getitem, path, doc)[key]
    else:
        leaves = draw(hs.lists(hs.sampled_from(list(_leaf_paths(doc))), min_size=1, max_size=3,
                               unique=True))
        for *path, key in leaves:
            reduce(getitem, path, doc)[key] = copy.deepcopy(draw(hs.sampled_from(EDGE_VALUES)))
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_a_mutated_bundled_document_loads_or_names_its_field(doc):
    # every document here is valid YAML, so every error names a scenario field
    try:
        config = load_scenario(yaml.safe_dump(doc))
    except ScenarioError as exc:
        assert str(exc).startswith("scenario")
    else:
        assert load_scenario(dump_scenario(config)) == config


# ---------------------------------------------------------------------------
# state builders


def test_build_fcm_state():
    state = build_fcm_state(load_scenario(MINIMAL))
    assert len(state.vehicles) == 1
    assert state.road_length == 50
    assert state.vehicles[0].vclass.name == "car"


def test_build_fcm_state_rejects_disorder():
    text = MINIMAL + "  - {class: car, position: 0}\n"
    with pytest.raises(ScenarioValidationError):
        build_fcm_state(load_scenario(text))


def test_build_nasch_state_defuzzifies():
    cfg = load_builtin("queue50")
    state = build_nasch_state(cfg)
    assert state.positions.tolist() == list(range(50))
    assert state.v_max == 3 and state.p == 0.2
    assert state.rng_seed == cfg.nasch.base_seed


# ---------------------------------------------------------------------------
# writers


def write_frames(frames, path):
    with spacetime_rows(path, frames.shape[1], frames.shape[0]) as write:
        for row in frames:
            write(row)


def test_spacetime_pgm_bytes(tmp_path):
    frames = np.zeros((3, 4))
    frames[0, 0] = 1.0
    frames[1, 1] = 1.0
    frames[2, 2] = 0.2275
    target = tmp_path / "out.pgm"
    write_frames(frames, target)
    data = target.read_bytes()
    assert data.startswith(b"P5\n4 3\n255\n")
    pixels = data[len(b"P5\n4 3\n255\n") :]
    assert len(pixels) == 12
    assert pixels[0] == 0  # grade 1 -> black
    assert pixels[1] == 255  # empty -> white
    assert pixels[10] == round(255 * (1 - 0.2275))


def test_spacetime_deterministic(tmp_path):
    frames = np.random.default_rng(0).random((5, 7))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_frames(frames, a)
    write_frames(frames, b)
    assert a.read_bytes() == b.read_bytes()


def test_fcm_frames_from_states(queue_class):
    from fuzzycell import FcmState, FcmVehicle
    from fuzzycell.model import iter_rows, membership_of_rows

    st = FcmState((FcmVehicle(0, queue_class, crisp(0), crisp(0)),), 10, "open")
    frames = np.stack([membership_of_rows(rows, 10) for rows in iter_rows(st, 2)])
    assert frames.shape == (3, 10)
    assert frames[0, 0] == 1.0 and frames[0, 1] == 0.0
    assert frames[1].max() == 1.0


@pytest.mark.parametrize("boundary", ["open", "ring"])
def test_fcm_membership_row_matches_cell_occupancy(boundary, queue_class):
    from fuzzycell import FcmState, FcmVehicle, cell_occupancy
    from fuzzycell.model import iter_rows, iter_states, membership_of_rows

    road = 24
    rng = np.random.default_rng(11 if boundary == "open" else 12)
    vehicles = []
    for i, core in enumerate(range(2, road - 2, 5)):
        others = {int(v) for v in rng.integers(core - 2, core + 3, 3)} - {core}
        grades = rng.uniform(0.05, 0.95, len(others)).tolist()
        support = [(core, 1.0), *zip(sorted(others), grades)]
        velocity = make_fuzzy([(0, 1.0), (1, float(rng.uniform(0.1, 0.9)))])
        vehicles.append(FcmVehicle(i, queue_class, make_fuzzy(support), velocity))
    state = FcmState(tuple(vehicles), road, boundary)
    # open-road supports run past the road's end; rings wrap on every step
    for st, rows in zip(iter_states(state, 30), iter_rows(state, 30), strict=True):
        expected = [max(cell_occupancy(st, c).values(), default=0.0) for c in range(road)]
        assert membership_of_rows(rows, road).tolist() == expected


def test_spacetime_rows_checks_the_declared_height(tmp_path):
    with pytest.raises(ValueError):
        with spacetime_rows(tmp_path / "short.pgm", 3, 2) as write:
            write(np.zeros(3))
    with pytest.raises(ValueError):
        with spacetime_rows(tmp_path / "long.pgm", 3, 1) as write:
            write(np.zeros(3))
            write(np.zeros(3))
    with pytest.raises(ValueError):
        with spacetime_rows(tmp_path / "wide.pgm", 3, 1) as write:
            write(np.zeros(4))


def test_nasch_frames_staircase():
    from fuzzycell import nasch

    states = nasch.iter_states(queue_state(1, 12, p=0.0, seed=0), 3)
    frames = np.stack([nasch_occupancy_row(state) for state in states])
    # single car accelerating from rest: 0, 1, 3, 6
    rows = [int(np.argmax(row)) for row in frames]
    assert rows == [0, 1, 3, 6]
    assert np.all(frames.sum(axis=1) == 1.0)


def test_queue_csv_fuzzy(tmp_path):
    target = tmp_path / "q.csv"
    with queue_rows(target, "grade") as write:
        write({50: 1.0})
        write({1: 0.2, 0: 0.8})
    assert target.read_text() == (
        "step,length,grade\n0,50,1.0\n1,0,0.8\n1,1,0.2\n"
    )


def test_queue_csv_empty_series(tmp_path):
    target = tmp_path / "q.csv"
    with queue_rows(target, "grade"):
        pass
    assert target.read_text() == "step,length,grade\n"


def test_queue_csv_histogram(tmp_path):
    hist = np.zeros((2, 3))
    hist[0, 2] = 1.0
    hist[1, 1] = 0.25
    hist[1, 2] = 0.75
    target = tmp_path / "q.csv"
    write_queue_csv(hist, target)
    assert target.read_text() == (
        "step,length,probability\n0,2,1.0\n1,1,0.25\n1,2,0.75\n"
    )


def test_fd_csv_fuzzy(tmp_path):
    target = tmp_path / "fd.csv"
    write_fd_csv([FdPoint(0.1, 0.3, 0.29, 0.35)], target)
    assert target.read_text() == (
        "density,flow_argmax,cut_low,cut_high\n0.1,0.3,0.29,0.35\n"
    )


def test_fd_csv_nasch(tmp_path):
    target = tmp_path / "fd.csv"
    write_fd_csv([NaschFdPoint(0.1, 0.28, ((0.26, 0.2), (0.3, 0.5)))], target)
    assert target.read_text() == (
        "density,flow,probability\n0.1,0.26,0.2\n0.1,0.3,0.5\n"
    )
