"""Scenario files, result serialization, and image output.

Scenarios are YAML mappings.  Fuzzy literals are written either as a
bare integer (crisp ``{1/x}``) or as a list of ``[value, grade]`` pairs:

    model: fcm
    road_length: 700
    boundary: open
    steps: 160
    alpha: 0.9
    epsilon: 0.01
    classes:
      - name: car
        length: 0
        v_max: [[2, 0.2], [3, 1.0], [4, 0.2]]
        accel: [[0, 0.2], [1, 1.0], [2, 0.2]]
    queue: {class: car, count: 50}
    nasch: {v_max: 3, p: 0.2, runs: 200, base_seed: 13000}
    outputs:
      - {kind: queue, path: queue50_fcm_queue.csv}

``fleet`` lists vehicles explicitly; ``queue`` is shorthand that expands
to a stopped column at load time, so a loaded configuration always
carries the full fleet.  Serialization with :func:`dump_scenario`
round-trips through :func:`load_scenario` unchanged.

The config types hold every scenario default and check themselves on
construction and on ``dataclasses.replace``, raising a field-path
:class:`ScenarioValidationError`.  :func:`load_scenario` also rejects
an integer outside int64 and builds the model state once, so a fleet
the model rejects fails at load, at ``scenario.fleet``.  A document and
a command-line override pass the same checks.  An omitted ``nasch`` or
``fd`` block takes the defaults.

The dataclass fields are the schema.  One reader, ``_read``, covers
every mapping of the document (the top level, classes, fleet entries,
``queue``, ``nasch``, ``fd`` and outputs) and one writer, ``_doc``, all
but ``queue``, which the fleet holds expanded.  Both take each field's
key, YAML type and default from ``dataclasses.fields``.  A key is the
field's name, except ``class``, which :class:`FleetEntry` and
:class:`QueueSpec` declare in their ``class_name`` field's metadata.
Every mapping accepts only the keys its config type knows; any other
key is a :class:`ScenarioParseError` naming its path.

Outputs: CSV time series with ``repr``-formatted floats (stable bytes
for golden-file comparison) and binary PGM (P5) space-time images, one
row per time step, one column per cell, black = membership 1.  Both are
streamed: :func:`spacetime_rows` and :func:`queue_rows` write one step
at a time as a simulation yields its states (the image height, steps +
1, is known up front), so no trajectory or steps x road array is kept.
:func:`write_queue_csv` writes the baseline ensemble's histogram through
:func:`queue_rows`, and :func:`write_fd_csv` the diagram points.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import yaml

from .fuzznum import FuzzyInt, FuzzyNumError, crisp, defuzz_argmax, make_fuzzy
from .model import BOUNDARIES, FcmState, FcmVehicle, VehicleClass
from .nasch import NaschState

__all__ = [
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "OutputSpec",
    "FleetEntry",
    "QueueSpec",
    "NaschSettings",
    "FdSettings",
    "ScenarioConfig",
    "load_scenario",
    "load_scenario_file",
    "dump_scenario",
    "builtin_scenarios",
    "load_builtin",
    "build_fcm_state",
    "build_nasch_state",
    "nasch_occupancy_row",
    "spacetime_rows",
    "queue_rows",
    "write_queue_csv",
    "write_fd_csv",
]

MODELS = ("fcm", "nasch")
OUTPUT_KINDS = ("spacetime", "queue", "fundamental")
ESTIMATORS = ("mean_velocity", "site_count")


class ScenarioError(ValueError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """Malformed document: bad YAML or wrong structure/type for a field."""


class ScenarioValidationError(ScenarioError):
    """Well-formed document violating a model invariant."""


@dataclass(frozen=True)
class OutputSpec:
    kind: str
    path: str


@dataclass(frozen=True)
class FleetEntry:
    class_name: str = field(metadata={"key": "class"})
    position: FuzzyInt
    velocity: FuzzyInt = field(default_factory=lambda: crisp(0))


@dataclass(frozen=True)
class QueueSpec:
    """The ``queue`` shorthand: ``count`` stopped vehicles, ``spacing`` apart."""

    class_name: str = field(metadata={"key": "class"})
    count: int
    start: int = 0
    spacing: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ScenarioValidationError("scenario.queue.count: must be at least 1")
        if self.start < 0:
            raise ScenarioValidationError("scenario.queue.start: must be non-negative")
        if self.spacing < 1:
            raise ScenarioValidationError("scenario.queue.spacing: must be at least 1")


@dataclass(frozen=True)
class NaschSettings:
    v_max: int = 3
    p: float = 0.2
    runs: int = 200
    base_seed: int = 13000

    def __post_init__(self):
        path = "scenario.nasch"
        if self.v_max < 1:
            raise ScenarioValidationError(f"{path}.v_max: must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ScenarioValidationError(f"{path}.p: must lie in [0, 1]")
        if self.runs < 1:
            raise ScenarioValidationError(f"{path}.runs: must be at least 1")
        if self.base_seed < 0:
            raise ScenarioValidationError(f"{path}.base_seed: must be non-negative")


@dataclass(frozen=True)
class FdSettings:
    densities: tuple[float, ...] = ()
    warmup: int = 100
    window: int = 500
    estimator: str = "mean_velocity"
    nasch_threshold: float = 0.1
    theta: float = 0.99

    def __post_init__(self):
        path = "scenario.fd"
        for d in self.densities:
            if isinstance(d, bool) or not isinstance(d, (int, float)) or not 0.0 < d <= 1.0:
                raise ScenarioValidationError(f"{path}.densities: {d!r} outside (0, 1]")
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        if self.estimator not in ESTIMATORS:
            raise ScenarioValidationError(
                f"{path}.estimator: unknown estimator {self.estimator!r}"
            )
        if self.warmup < 0 or self.window < 1:
            raise ScenarioValidationError(f"{path}: warmup must be >= 0 and window >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ScenarioValidationError(f"{path}.theta: must lie in (0, 1]")
        if not 0.0 <= self.nasch_threshold <= 1.0:
            raise ScenarioValidationError(f"{path}.nasch_threshold: must lie in [0, 1]")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A scenario.  Fleet entries and output kinds are checked here, not in
    their own types, because the error's field path needs their index;
    the model's own rules for the fleet are checked by the builders."""

    model: str
    road_length: int
    boundary: str = "open"
    steps: int
    alpha: float = 0.9
    epsilon: float = 0.01
    classes: tuple[VehicleClass, ...]
    fleet: tuple[FleetEntry, ...] = ()
    nasch: NaschSettings = field(default_factory=NaschSettings)
    fd: FdSettings = field(default_factory=FdSettings)
    outputs: tuple[OutputSpec, ...] = ()

    def __post_init__(self):
        if self.model not in MODELS:
            raise ScenarioValidationError(f"scenario.model: unknown model {self.model!r}")
        if self.boundary not in BOUNDARIES:
            raise ScenarioValidationError(f"scenario.boundary: unknown boundary {self.boundary!r}")
        if self.road_length < 1:
            raise ScenarioValidationError("scenario.road_length: must be at least 1")
        if self.steps < 1:
            raise ScenarioValidationError("scenario.steps: must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ScenarioValidationError("scenario.alpha: must lie in [0, 1]")
        if not 0.0 <= self.epsilon < 1.0:
            raise ScenarioValidationError("scenario.epsilon: must lie in [0, 1)")
        if not self.classes:
            raise ScenarioValidationError("scenario.classes: at least one class required")
        names = {c.name for c in self.classes}
        if len(names) != len(self.classes):
            raise ScenarioValidationError("scenario.classes: class names must be unique")
        for i, entry in enumerate(self.fleet):
            path = f"scenario.fleet[{i}]"
            if entry.class_name not in names:
                raise ScenarioValidationError(f"{path}.class: unknown class {entry.class_name!r}")
            if self.boundary == "ring" and int(entry.position.values[-1]) >= self.road_length:
                raise ScenarioValidationError(f"{path}.position: support exceeds the ring length")
            if int(entry.position.values[0]) < 0:
                raise ScenarioValidationError(f"{path}.position: support must be non-negative")
            if self.model == "nasch" and not (entry.position.is_crisp and entry.velocity.is_crisp):
                raise ScenarioValidationError(
                    f"{path}: the nasch model needs crisp positions and velocities"
                )
            velocity = int(entry.velocity.values[-1])
            if self.model == "nasch" and velocity > self.nasch.v_max:
                raise ScenarioValidationError(
                    f"{path}.velocity: {velocity} exceeds nasch.v_max {self.nasch.v_max}"
                )
        for d in self.fd.densities:
            if round(d * self.road_length) < 1:
                raise ScenarioValidationError(
                    f"scenario.fd.densities: density {d} places no vehicle "
                    f"on {self.road_length} cells"
                )
        for i, out in enumerate(self.outputs):
            if out.kind not in OUTPUT_KINDS:
                raise ScenarioValidationError(
                    f"scenario.outputs[{i}].kind: unknown output kind {out.kind!r}"
                )


# ---------------------------------------------------------------------------
# loading


# The YAML types a config field accepts, by the field's resolved type.
# A nested config type takes a mapping and a tuple field a list.
_YAML_TYPES = {int: int, float: (int, float), str: str, FuzzyInt: (int, list)}
_INT64 = np.iinfo(np.int64)

# Vehicles sit on distinct cells, so a queue's engine rows hold at least
# count**2 float64 grades, 0.8 GB at this count: a longer one cannot run.
_MAX_QUEUE = 10_000


def _need(mapping, key, types, path):
    if key not in mapping:
        raise ScenarioParseError(f"{path}: missing required field '{key}'")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ScenarioParseError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    if types is int and not _INT64.min <= value <= _INT64.max:
        raise ScenarioValidationError(f"{path}.{key}: value outside the int64 range")
    return value


@cache
def _schema(config_type) -> dict:
    """Each field of ``config_type`` by its document key (the field's
    ``key`` metadata, else its name): its name, its resolved type and
    whether it is required, which it is when it has no default."""
    hints = get_type_hints(config_type)
    return {
        f.metadata.get("key", f.name): (
            f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING
        )
        for f in fields(config_type)
    }


def _read(raw, config_type, path):
    """Build ``config_type`` from the mapping ``raw``, which may hold no key
    but the type's fields."""
    schema = _schema(config_type)
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: expected a mapping")
    for key in raw:
        if key not in schema:
            raise ScenarioParseError(f"{path}.{key}: unknown field")
    values = {}
    for key, (name, hint, required) in schema.items():
        if not required and raw.get(key) is None:
            continue
        at = f"{path}.{key}"
        if hint in _YAML_TYPES:
            value = _need(raw, key, _YAML_TYPES[hint], path)
            if hint is float:
                value = float(value)
            elif hint is FuzzyInt:
                value = _fuzzy_literal(value, at)
        elif is_dataclass(hint):
            value = _read(_need(raw, key, dict, path), hint, at)
        else:  # tuple[item, ...]
            value = _need(raw, key, list, path)
            item = get_args(hint)[0]
            if is_dataclass(item):
                value = tuple(_read(v, item, f"{at}[{i}]") for i, v in enumerate(value))
        values[name] = value
    try:
        return config_type(**values)
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _fuzzy_literal(raw, path) -> FuzzyInt:
    if isinstance(raw, int):
        raw = [[raw, 1.0]]
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) in (int, float)
        for p in raw
    ):
        raise ScenarioParseError(f"{path}: expected integer or [value, grade] pairs")
    try:
        return make_fuzzy([(p[0], p[1]) for p in raw])
    except FuzzyNumError as exc:
        raise ScenarioValidationError(f"{path}: {type(exc).__name__}: {exc}") from exc
    except OverflowError as exc:  # a support value beyond int64
        raise ScenarioValidationError(f"{path}: value outside the int64 range") from exc


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document; the config types and the model check it."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a mapping")
    queue = doc.get("queue")
    if queue is not None:
        queue = _read(_need(doc, "queue", dict, "scenario"), QueueSpec, "scenario.queue")
    doc.pop("queue", None)
    config = _read(doc, ScenarioConfig, "scenario")

    if queue is not None:
        name = queue.class_name
        cells = range(queue.start, queue.start + queue.count * queue.spacing, queue.spacing)
        if name not in {c.name for c in config.classes}:
            raise ScenarioValidationError(f"scenario.queue.class: unknown class {name!r}")
        if cells[-1] >= config.road_length:
            raise ScenarioValidationError(
                f"scenario.queue.count: {queue.count} vehicles reach cell {cells[-1]}, "
                f"beyond the road of length {config.road_length}"
            )
        if queue.count > _MAX_QUEUE:
            raise ScenarioValidationError(f"scenario.queue.count: more than {_MAX_QUEUE} vehicles")
        entries = tuple(FleetEntry(name, crisp(cell)) for cell in cells)
        config = replace(config, fleet=config.fleet + entries)

    # A document rule, not a config rule: ``compare`` runs a nasch
    # scenario's configuration as model fcm, whatever its estimator.
    if config.fd.estimator == "site_count" and config.model == "fcm":
        raise ScenarioValidationError(
            "scenario.fd.estimator: site_count applies to the nasch model only"
        )
    (build_fcm_state if config.model == "fcm" else build_nasch_state)(config)
    return config


def load_scenario_file(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(text)


def _doc(value):
    """The document form of a config value: fuzzy sets as [value, grade]
    pairs, tuples as lists, config objects as mappings."""
    if isinstance(value, FuzzyInt):
        return [list(pair) for pair in value.to_pairs()]
    if isinstance(value, tuple):
        return [_doc(v) for v in value]
    if is_dataclass(value):
        schema = _schema(type(value))
        return {key: _doc(getattr(value, name)) for key, (name, _, _) in schema.items()}
    return value


def dump_scenario(config: ScenarioConfig) -> str:
    """Serialize a configuration; load_scenario(dump_scenario(c)) == c."""
    return yaml.safe_dump(_doc(config), sort_keys=False)


def builtin_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def load_builtin(name: str) -> ScenarioConfig:
    ref = resources.files(__package__) / "scenarios" / f"{name}.yaml"
    if not ref.is_file():
        raise ScenarioError(f"no builtin scenario named {name!r}")
    return load_scenario(ref.read_text())


# ---------------------------------------------------------------------------
# model builders


def build_fcm_state(config: ScenarioConfig) -> FcmState:
    """Initial fuzzy road state; a model error names ``scenario.fleet``."""
    by_name = {c.name: c for c in config.classes}
    try:
        vehicles = tuple(
            FcmVehicle(i, by_name[e.class_name], e.position, e.velocity)
            for i, e in enumerate(config.fleet)
        )
        return FcmState(vehicles, config.road_length, config.boundary, config.alpha, config.epsilon)
    except ValueError as exc:
        raise ScenarioValidationError(f"scenario.fleet: {exc}") from exc


def build_nasch_state(config: ScenarioConfig) -> NaschState:
    """Initial baseline state with the fleet defuzzified; a model error
    names ``scenario.fleet``.  Velocities are clamped to ``nasch.v_max``,
    which only an fcm configuration can exceed: ``queue-experiment`` and
    ``compare`` run the baseline from one."""
    ns = config.nasch
    positions = [defuzz_argmax(e.position) for e in config.fleet]
    velocities = [min(defuzz_argmax(e.velocity), ns.v_max) for e in config.fleet]
    try:
        return NaschState(
            config.road_length,
            config.boundary,
            np.array(positions, dtype=np.int64),
            np.array(velocities, dtype=np.int64),
            ns.v_max,
            ns.p,
            ns.base_seed,
        )
    except ValueError as exc:
        raise ScenarioValidationError(f"scenario.fleet: {exc}") from exc


# ---------------------------------------------------------------------------
# output writers


def nasch_occupancy_row(state) -> np.ndarray:
    """Crisp occupancy of one state (grade 1 where a vehicle sits)."""
    return (state.cells >= 0).astype(np.float64)


@contextmanager
def spacetime_rows(path, width: int, height: int):
    """Open a binary PGM of ``height`` rows of ``width`` cells; yield a row writer.

    The writer takes one membership row per call (black = grade 1,
    white = empty) and writes it at once.  Leaving the block with fewer
    than ``height`` rows written raises ValueError.
    """
    if width < 1 or height < 1:
        raise ValueError("a space-time image needs at least one row and one cell")
    written = 0

    def write(row) -> None:
        nonlocal written
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (width,):
            raise ValueError(f"membership row of shape {row.shape}, expected ({width},)")
        if written == height:
            raise ValueError(f"more than the declared {height} rows")
        fh.write(np.rint(255.0 * (1.0 - np.clip(row, 0.0, 1.0))).astype(np.uint8).tobytes())
        written += 1

    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        yield write
    if written != height:
        raise ValueError(f"{written} rows written, {height} declared")


@contextmanager
def queue_rows(path, column: str):
    """Open a queue series CSV; yield a writer taking one step at a time.

    Each call takes the next step's value -> ``column`` mapping and
    writes its non-zero entries in length order.
    """
    step = 0

    def write(dist) -> None:
        nonlocal step
        fh.write("".join(f"{step},{x},{float(dist[x])!r}\n" for x in sorted(dist)))
        step += 1

    with open(path, "w") as fh:
        fh.write(f"step,length,{column}\n")
        yield write


def write_queue_csv(hist, path) -> None:
    """Ensemble queue histogram CSV from a (steps x lengths) probability
    matrix: rows ordered by step then length, zero entries skipped."""
    with queue_rows(path, "probability") as write:
        for p in hist:
            write({int(x): p[x] for x in np.flatnonzero(p > 0.0)})


def write_fd_csv(points, path) -> None:
    """Diagram CSV: cut-bracketed fuzzy flows or probability-tagged states."""
    points = list(points)
    if points and hasattr(points[0], "states"):
        header = "density,flow,probability"
        rows = [
            f"{p.density!r},{flow!r},{prob!r}"
            for p in points
            for flow, prob in p.states
        ]
    else:
        header = "density,flow_argmax,cut_low,cut_high"
        rows = [
            f"{p.density!r},{p.flow_argmax!r},{p.flow_cut_low!r},{p.flow_cut_high!r}"
            for p in points
        ]
    Path(path).write_text("\n".join([header, *rows]) + "\n")
