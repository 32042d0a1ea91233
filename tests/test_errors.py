"""Error messages: one single-fault document or call per raise site.

Each case breaks one thing in an otherwise valid input and pins the
exception class and the exact message, so that a reworded or re-typed
error shows up here.
"""

import copy

import numpy as np
import pytest
import yaml

from fuzzycell import crisp, wrap_mod
from fuzzycell.metrics import empirical_queue_distribution
from fuzzycell.model import FcmState, FcmVehicle, VehicleClass, iter_rows, ring_state, run_ring
from fuzzycell.nasch import NaschEnsemble, NaschState, iter_states, monte_carlo
from fuzzycell.simio import (
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    build_nasch_state,
    load_builtin,
    load_scenario,
    load_scenario_file,
    spacetime_rows,
    write_spacetime,
)

VALID = {
    "model": "fcm",
    "road_length": 30,
    "steps": 4,
    "classes": [{"name": "car", "length": 0, "v_max": 3, "accel": 1}],
    "fleet": [{"class": "car", "position": 2}],
}


def _document(change):
    """Load VALID with one change applied to a deep copy of it."""
    def load(tmp_path):
        doc = copy.deepcopy(VALID)
        change(doc)
        return load_scenario(yaml.safe_dump(doc))
    return load


def _set(key, value):
    return _document(lambda doc: doc.__setitem__(key, value))


def _class(**fields):
    return _document(lambda doc: doc["classes"][0].update(fields))


def _spacetime(width, height):
    def open_rows(tmp_path):
        with spacetime_rows(tmp_path / "x.pgm", width, height):
            pass
    return open_rows


CAR = VehicleClass("car", crisp(0), crisp(3), crisp(1))


def _fcm_state(*vehicles, road_length=30):
    return lambda tmp_path: FcmState(vehicles, road_length)


def _vehicle(position, velocity):
    return lambda tmp_path: FcmVehicle(0, CAR, crisp(position), crisp(velocity))


def _nasch_state(positions=(), road_length=100, boundary="open"):
    velocities = [0] * len(positions)
    return lambda tmp_path: NaschState(road_length, boundary, positions, velocities, 3, 0.2, 0)


def _empty_ensemble(tmp_path):
    none = np.zeros((0, 4), dtype=np.int64)
    empirical_queue_distribution(NaschEnsemble(30, "open", 3, 0.2, 0, 3, 0, none, none, none))


def _nasch_out_of_order(tmp_path):
    doc = dict(VALID, model="nasch")
    doc["fleet"] = [{"class": "car", "position": 5}, {"class": "car", "position": 2}]
    build_nasch_state(load_scenario(yaml.safe_dump(doc)))


VALIDATION = ScenarioValidationError
PARSE = ScenarioParseError

CASES = {
    # NaschSettings
    "nasch_v_max": (
        _set("nasch", {"v_max": 0}), VALIDATION, "scenario.nasch.v_max: must be at least 1",
    ),
    "nasch_p": (_set("nasch", {"p": 1.5}), VALIDATION, "scenario.nasch.p: must lie in [0, 1]"),
    "nasch_runs": (
        _set("nasch", {"runs": 0}), VALIDATION, "scenario.nasch.runs: must be at least 1",
    ),
    # FdSettings
    "fd_estimator": (
        _set("fd", {"estimator": "median"}), VALIDATION,
        "scenario.fd.estimator: unknown estimator 'median'",
    ),
    "fd_theta": (_set("fd", {"theta": 0}), VALIDATION, "scenario.fd.theta: must lie in (0, 1]"),
    # ScenarioConfig
    "model": (_set("model", "cfd"), VALIDATION, "scenario.model: unknown model 'cfd'"),
    "boundary": (
        _set("boundary", "loop"), VALIDATION, "scenario.boundary: unknown boundary 'loop'",
    ),
    "epsilon": (_set("epsilon", 1.0), VALIDATION, "scenario.epsilon: must lie in [0, 1)"),
    "no_classes": (
        _set("classes", []), VALIDATION, "scenario.classes: at least one class required",
    ),
    "duplicate_class_names": (
        _document(lambda doc: doc["classes"].append(dict(doc["classes"][0]))), VALIDATION,
        "scenario.classes: class names must be unique",
    ),
    "negative_fleet_position": (
        _set("fleet", [{"class": "car", "position": -1}]), VALIDATION,
        "scenario.fleet[0].position: support must be non-negative",
    ),
    # the loader
    "optional_field_type": (
        _set("boundary", 3), PARSE, "scenario.boundary: expected <class 'str'>, got int",
    ),
    "bool_fuzzy_literal": (
        _class(length=True), PARSE,
        "scenario.classes[0].length: expected (<class 'int'>, <class 'list'>), got bool",
    ),
    "malformed_fuzzy_literal": (
        _set("fleet", [{"class": "car", "position": [[2, 1.0, 3]]}]), PARSE,
        "scenario.fleet[0].position: expected integer or [value, grade] pairs",
    ),
    "document_not_a_mapping": (
        lambda tmp_path: load_scenario("- model\n- fcm\n"), PARSE,
        "scenario document must be a mapping",
    ),
    "class_not_a_mapping": (
        _set("classes", ["car"]), PARSE, "scenario.classes[0]: expected a mapping",
    ),
    "fleet_entry_not_a_mapping": (
        _set("fleet", [2]), PARSE, "scenario.fleet[0]: expected a mapping",
    ),
    "output_entry_not_a_mapping": (
        _set("outputs", ["x.pgm"]), PARSE, "scenario.outputs[0]: expected a mapping",
    ),
    "vehicle_class_error": (
        _class(v_max=0), VALIDATION,
        "scenario.classes[0]: class 'car': v_max needs a positive support value",
    ),
    "queue_count": (
        _set("queue", {"class": "car", "count": 0}), VALIDATION,
        "scenario.queue.count: must be at least 1",
    ),
    "queue_spacing": (
        _set("queue", {"class": "car", "count": 2, "spacing": 0}), VALIDATION,
        "scenario.queue.spacing: must be at least 1",
    ),
    "bool_value_in_fuzzy_pair": (
        _class(v_max=[[True, 1.0]]), PARSE,
        "scenario.classes[0].v_max: expected integer or [value, grade] pairs",
    ),
    "bool_grade_in_fuzzy_pair": (
        _class(v_max=[[2, True]]), PARSE,
        "scenario.classes[0].v_max: expected integer or [value, grade] pairs",
    ),
    "string_grade_in_fleet_position": (
        _set("fleet", [{"class": "car", "position": [[2, "x"]]}]), PARSE,
        "scenario.fleet[0].position: expected integer or [value, grade] pairs",
    ),
    "string_grade_in_class_v_max": (
        _class(v_max=[[2, "x"]]), PARSE,
        "scenario.classes[0].v_max: expected integer or [value, grade] pairs",
    ),
    "float_value_in_fuzzy_pair": (
        _class(v_max=[[2.5, 1.0]]), PARSE,
        "scenario.classes[0].v_max: expected integer or [value, grade] pairs",
    ),
    "int64_overflow_fleet_position": (
        _set("fleet", [{"class": "car", "position": 10**20}]), VALIDATION,
        "scenario.fleet[0].position: value outside the int64 range",
    ),
    "int64_overflow_in_fuzzy_pair": (
        _set("fleet", [{"class": "car", "position": [[10**20, 1.0]]}]), VALIDATION,
        "scenario.fleet[0].position: value outside the int64 range",
    ),
    "int64_overflow_class_v_max": (
        _class(v_max=[[2, 0.5], [10**20, 1.0]]), VALIDATION,
        "scenario.classes[0].v_max: value outside the int64 range",
    ),
    "missing_fleet_class": (
        _set("fleet", [{"position": 2}]), PARSE, "scenario.fleet[0]: missing required field 'class'",
    ),
    "missing_class_accel": (
        _document(lambda doc: doc["classes"][0].pop("accel")), PARSE,
        "scenario.classes[0]: missing required field 'accel'",
    ),
    "nasch_not_a_mapping": (
        _set("nasch", [3]), PARSE, "scenario.nasch: expected <class 'dict'>, got list",
    ),
    "fleet_not_a_list": (
        _set("fleet", {"class": "car", "position": 2}), PARSE,
        "scenario.fleet: expected <class 'list'>, got dict",
    ),
    "missing_output_path": (
        _set("outputs", [{"kind": "queue"}]), PARSE,
        "scenario.outputs[0]: missing required field 'path'",
    ),
    "unknown_top_level_key": (_set("alfa", 0.5), PARSE, "scenario.alfa: unknown field"),
    "unknown_class_key": (
        _class(lenght=0), PARSE, "scenario.classes[0].lenght: unknown field",
    ),
    "unknown_fleet_key": (
        _document(lambda doc: doc["fleet"][0].update(velocty=3)), PARSE,
        "scenario.fleet[0].velocty: unknown field",
    ),
    "unknown_queue_key": (
        _set("queue", {"class": "car", "count": 2, "spacin": 2}), PARSE,
        "scenario.queue.spacin: unknown field",
    ),
    "unknown_nasch_key": (_set("nasch", {"rnus": 10}), PARSE, "scenario.nasch.rnus: unknown field"),
    "unknown_fd_key": (_set("fd", {"warmpu": 7}), PARSE, "scenario.fd.warmpu: unknown field"),
    "unknown_output_key": (
        _set("outputs", [{"kind": "queue", "path": "q.csv", "extra": 1}]), PARSE,
        "scenario.outputs[0].extra: unknown field",
    ),
    "unreadable_file": (
        lambda tmp_path: load_scenario_file(tmp_path / "none.yaml"), ScenarioError,
        "cannot read scenario {tmp}/none.yaml: [Errno 2] No such file or directory: "
        "'{tmp}/none.yaml'",
    ),
    "unknown_builtin": (
        lambda tmp_path: load_builtin("ring_fd"), ScenarioError,
        "no builtin scenario named 'ring_fd'",
    ),
    # builders and writers
    "nasch_fleet_out_of_order": (
        _nasch_out_of_order, VALIDATION, "positions must be strictly increasing",
    ),
    "spacetime_width": (
        _spacetime(0, 3), ValueError, "a space-time image needs at least one row and one cell",
    ),
    "spacetime_height": (
        _spacetime(3, 0), ValueError, "a space-time image needs at least one row and one cell",
    ),
    "write_spacetime_1d": (
        lambda tmp_path: write_spacetime(np.zeros(3), tmp_path / "x.pgm"), ValueError,
        "frames must be a non-empty 2-D membership array",
    ),
    # fuzzy numbers and model states
    "wrap_mod_modulus": (
        lambda tmp_path: wrap_mod(crisp(1), 0), ValueError, "modulus must be positive",
    ),
    "fcm_road_length": (_fcm_state(road_length=0), ValueError, "road_length must be at least 1"),
    "fcm_duplicate_indexes": (
        _fcm_state(FcmVehicle(0, CAR, crisp(1), crisp(0)), FcmVehicle(0, CAR, crisp(4), crisp(0))),
        ValueError, "vehicle indexes must be unique",
    ),
    "vehicle_negative_position": (
        _vehicle(-1, 0), ValueError, "vehicle 0: position support must be non-negative",
    ),
    "vehicle_negative_velocity": (
        _vehicle(1, -1), ValueError, "vehicle 0: velocity support must be non-negative",
    ),
    "ring_state_count": (
        lambda tmp_path: ring_state(CAR, 3, 4), ValueError,
        "cannot place more vehicles than cells on the ring",
    ),
    "nasch_boundary": (
        _nasch_state(boundary="loop"), ValueError, "boundary must be 'open' or 'ring'",
    ),
    "nasch_road_length": (
        _nasch_state(road_length=0), ValueError, "road_length must be at least 1",
    ),
    "nasch_ring_span": (
        _nasch_state([0, 100], boundary="ring"), ValueError,
        "ring vehicles must occupy distinct cells",
    ),
    # step counts: 0 is valid, and ScenarioConfig already rejects steps < 1
    "run_ring_negative_steps": (
        lambda tmp_path: run_ring(ring_state(CAR, 10, 2), -3, theta=0.5), ValueError,
        "steps must be at least 0, got -3",
    ),
    "iter_rows_negative_steps": (
        lambda tmp_path: list(iter_rows(ring_state(CAR, 10, 2), -2)), ValueError,
        "steps must be at least 0, got -2",
    ),
    "monte_carlo_negative_steps": (
        lambda tmp_path: monte_carlo(_nasch_state([0, 5])(tmp_path), -2, 3, 1), ValueError,
        "steps must be at least 0, got -2",
    ),
    "nasch_iter_states_negative_steps": (
        lambda tmp_path: list(iter_states(_nasch_state([0, 5])(tmp_path), -2)), ValueError,
        "steps must be at least 0, got -2",
    ),
    # metrics
    "empty_ensemble": (_empty_ensemble, ValueError, "empty ensemble"),
}


@pytest.mark.parametrize("case", CASES)
def test_error_class_and_message(case, tmp_path):
    load_scenario(yaml.safe_dump(VALID))  # every case breaks one thing in it
    call, error, message = CASES[case]
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == message.replace("{tmp}", str(tmp_path))
