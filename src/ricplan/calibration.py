"""Calibration data for the migration and energy models.

A CalibrationSet holds every fitted coefficient the models consume, keyed by
strategy, traffic class, state size (rho, in MB) and maintenance period (nu,
in seconds) where applicable.  Shipped defaults cover the measured operating
points; user files may override any subset and may use "*" wildcard keys,
with the most specific key winning on lookup.

Units follow the measurement tables: watts, virtual cores, gigabytes and
seconds, except sigma (defrag-downtime slope) which is stored in milliseconds
exactly as measured and converted to seconds where the models read it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .reader import Reader

SDL = "sdl"
SM_MR = "sm-mr"
SM_MD = "sm-md"
STRATEGIES = (SDL, SM_MR, SM_MD)
METRICS = ("E", "CPU", "MEM", "DISK")
WILDCARD = "*"


class CalibrationError(ValueError):
    """Raised for malformed calibration documents."""


class CalibrationLookupError(KeyError):
    """Raised when a requested coefficient is not calibrated.

    Missing keys are hard errors, never interpolated: planning with a made-up
    coefficient is worse than refusing to plan.
    """

    def __init__(self, key: str):
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"no calibration entry for {self.key}"


@dataclass(frozen=True)
class CalibrationSet:
    """Immutable bag of fitted coefficients.

    kpi:         strategy -> rho_mb -> {delta_d, b_d, delta_m, b_m} [s/xApp, s]
    sigma_ms:    class -> rho_mb -> nu_s -> slope [ms/xApp]
    sdl_linear:  class -> metric -> {delta, b} (per-class backend share terms)
    sm_overhead: strategy -> metric -> constant (cores for CPU, W for E)
    xapp_load:   class -> metric -> per-xApp coefficient p
    server_idle: metric -> idle coefficient q
    """

    kpi: dict = field(default_factory=dict)
    sigma_ms: dict = field(default_factory=dict)
    sdl_linear: dict = field(default_factory=dict)
    sm_overhead: dict = field(default_factory=dict)
    xapp_load: dict = field(default_factory=dict)
    server_idle: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MeasurementSeries:
    """One measured KPI/resource series destined for an affine fit."""

    predictor: tuple
    response: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.predictor) != len(self.response):
            raise ValueError("predictor and response must have equal length")
        if len(self.predictor) < 2:
            raise ValueError("need at least 2 measurement points")
        if len(set(self.predictor)) != len(self.predictor):
            raise ValueError("predictor values must be distinct")


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    rms: float


class DegenerateFitError(ValueError):
    """Raised when a series cannot pin down a slope."""


def default_calibration() -> CalibrationSet:
    """The shipped coefficient tables.

    KPI slopes are per migrated xApp.  Downtime and migration-duration
    intercepts for the stateful strategies are zero (the measured lines pass
    through the origin); sm-mr downtime and duration share one slope.
    """
    kpi = {
        SM_MR: {
            1.0: {"delta_d": 10.55, "b_d": 0.0, "delta_m": 10.55, "b_m": 0.0},
            10.0: {"delta_d": 11.73, "b_d": 0.0, "delta_m": 11.73, "b_m": 0.0},
            100.0: {"delta_d": 23.3, "b_d": 0.0, "delta_m": 23.3, "b_m": 0.0},
        },
        SM_MD: {
            1.0: {"delta_d": 5.74, "b_d": 0.0, "delta_m": 20.28, "b_m": 0.0},
            10.0: {"delta_d": 6.49, "b_d": 0.0, "delta_m": 23.02, "b_m": 0.0},
            100.0: {"delta_d": 13.3, "b_d": 0.0, "delta_m": 48.2, "b_m": 0.0},
        },
        # backend-assisted migration is state-size independent; downtime is zero
        SDL: {
            WILDCARD: {"delta_d": 0.0, "b_d": 0.0, "delta_m": 0.08, "b_m": 4.27},
        },
    }
    sigma_ms = {
        "A": {1.0: {1.0: 16.62}},
        "B": {1.0: {1.0: 17.07}},
        "C": {1.0: {1.0: 7.71}},
        "D": {1.0: {1.0: 11.62}},
    }
    sdl_linear = {
        "A": {
            "E": {"delta": -0.18, "b": 32.35},
            "CPU": {"delta": -0.00, "b": 5.32},
            "MEM": {"delta": 0.04, "b": 0.20},
            "DISK": {"delta": 0.01, "b": 0.00},
        },
        "B": {
            "E": {"delta": -0.09, "b": 33.60},
            "CPU": {"delta": 0.03, "b": 5.57},
            "MEM": {"delta": 0.04, "b": 0.17},
            "DISK": {"delta": 0.01, "b": 0.00},
        },
        "C": {
            "E": {"delta": -0.10, "b": 35.48},
            "CPU": {"delta": -0.03, "b": 4.97},
            "MEM": {"delta": 0.02, "b": 1.82},
            "DISK": {"delta": 0.00, "b": 0.00},
        },
        "D": {
            "E": {"delta": -0.06, "b": 40.20},
            "CPU": {"delta": -0.01, "b": 5.00},
            "MEM": {"delta": 0.08, "b": 1.04},
            "DISK": {"delta": 0.03, "b": 0.00},
        },
    }
    sm_overhead = {
        SM_MR: {"CPU": 0.40, "E": 17.87, "MEM": 0.0, "DISK": 0.0},
        SM_MD: {"CPU": 0.76, "E": 27.56, "MEM": 0.0, "DISK": 0.0},
    }
    xapp_load = {
        "A": {"E": 3.43, "CPU": 0.47, "MEM": 0.52, "DISK": 0.0},
        "B": {"E": 16.48, "CPU": 2.86, "MEM": 0.52, "DISK": 0.0},
        "C": {"E": 3.43, "CPU": 0.47, "MEM": 0.52, "DISK": 0.0},
        "D": {"E": 16.48, "CPU": 2.86, "MEM": 0.52, "DISK": 0.0},
    }
    server_idle = {"E": 120.0, "CPU": 0.1, "MEM": 5.7, "DISK": 3.2}
    return CalibrationSet(
        kpi=kpi,
        sigma_ms=sigma_ms,
        sdl_linear=sdl_linear,
        sm_overhead=sm_overhead,
        xapp_load=xapp_load,
        server_idle=server_idle,
    )


# ---------------------------------------------------------------------------
# loading / validation

_read = Reader(CalibrationError)
# the key kinds of a free level and of the two axis levels, which are keyed
# by a decimal or the wildcard and named in a lookup miss as rho=... / nu=...
_ANY, _RHO, _NU = "any key", "rho", "nu"
_AXES = (_RHO, _NU)


def _slope(value, where: str) -> float:
    number = _read.number(value, where)
    if number < 0:
        raise CalibrationError(f"{where}: slope must be >= 0")
    return number


# Each block of a calibration file, in the order they are read: the field of
# CalibrationSet it merges into, the key kind of each level (_ANY, an axis
# of _AXES, or (noun, allowed keys)) and the leaf.  A leaf is a number
# reader, or a line: the readers of an object's fields, read over the entry
# the object overrides, so the merged entry holds every field.
_BLOCKS = {
    "kpi": ("kpi", (("strategy", STRATEGIES), _RHO), {
        "delta_d": _slope, "b_d": _read.number,
        "delta_m": _slope, "b_m": _read.number}),
    "sigma": ("sigma_ms", (_ANY, _RHO, _NU), _read.nonnegative),
    "sdl_linear": ("sdl_linear", (_ANY, ("metric", METRICS)),
                   {"delta": _read.number, "b": _read.number}),
    "sm_overhead": ("sm_overhead",
                    (("strategy", (SM_MR, SM_MD)), ("metric", METRICS)),
                    _read.number),
    "xapp_load": ("xapp_load", (_ANY, ("metric", METRICS)),
                  _read.nonnegative),
    "server_idle": ("server_idle", (("metric", METRICS),), _read.nonnegative),
}


def _key(kind, raw, where: str):
    """The table key of the file key `raw`, read as `kind`."""
    if kind in _AXES:
        if raw == WILDCARD:
            return WILDCARD
        try:
            key = float(raw)
        except (TypeError, ValueError, OverflowError):
            key = math.nan
        if not math.isfinite(key):
            raise CalibrationError(f"{where}: bad numeric key {raw!r}")
        return key
    if kind is not _ANY and raw not in kind[1]:
        raise CalibrationError(f"{where}: unknown {kind[0]} {raw!r}")
    return raw


def _merge(table: dict, value, where: str, kinds, leaf) -> dict:
    """Read the object `value`, keyed as kinds[0], into `table`: a deeper
    level merges into the table it overrides (a new table only once it holds
    an entry), the last level's entries are read by `leaf`."""
    if not isinstance(value, Mapping):
        raise CalibrationError(f"{where}: expected an object")
    kind, *deeper = kinds
    for raw, entry in value.items():
        key, at = _key(kind, raw, where), f"{where}.{raw}"
        if deeper:
            sub = _merge(table.get(key, {}), entry, at, deeper, leaf)
            if sub:
                table[key] = sub
        elif isinstance(leaf, dict):
            table[key] = _read.record(entry, at, leaf, table.get(key, {}))
        else:
            table[key] = leaf(entry, at)
    return table


def load_calibration(source) -> CalibrationSet:
    """Build a CalibrationSet from a JSON document merged over the defaults.

    `source` may be a mapping, a path to a JSON file, or None (defaults only).
    Unknown blocks or keys are rejected and every number must be finite;
    sigma values, loads, idle coefficients and KPI slopes must be
    non-negative (backend-share slopes may legitimately be negative).
    """
    doc = {} if source is None else _read.document(source)
    for block in doc:
        if block not in _BLOCKS:
            raise CalibrationError(f"unknown calibration block {block!r}")
    cal = default_calibration()
    for block, (field_name, kinds, leaf) in _BLOCKS.items():
        if block in doc:
            _merge(getattr(cal, field_name), doc[block], block, kinds, leaf)
    return cal


def _axis_key_out(key):
    return WILDCARD if key == WILDCARD else repr(float(key))


def serialize_calibration(cal: CalibrationSet) -> dict:
    """JSON-ready document that load_calibration maps back to `cal`."""

    def out(table, kinds):
        if not kinds:
            return dict(table) if isinstance(table, dict) else table
        kind, *deeper = kinds
        return {_axis_key_out(key) if kind in _AXES else key:
                out(entry, deeper) for key, entry in table.items()}

    return {block: out(getattr(cal, field_name), kinds)
            for block, (field_name, kinds, _) in _BLOCKS.items()}


# ---------------------------------------------------------------------------
# lookup

def lookup(cal: CalibrationSet, block: str, *keys):
    """The entry of `block` at `keys`: one key per level of _BLOCKS[block],
    then, for a line, optionally one of its fields.  Examples:
    lookup(cal, "kpi", "sm-md", 10.0) is the {delta_d, b_d, delta_m, b_m}
    line, lookup(cal, "sdl_linear", "A", "E", "b") one field of a line,
    lookup(cal, "sigma", "C", 1.0, 1.0) a slope in ms as calibrated.

    Each level takes the key itself, else its "*" entry; _key admits "*"
    only at free and axis levels.  A miss raises CalibrationLookupError
    naming the path, axis levels as rho=... and nu=...
    """
    field_name, kinds, _ = _BLOCKS[block]
    entry = getattr(cal, field_name)
    for depth, key in enumerate(keys):
        try:
            entry = entry[key] if key in entry else entry[WILDCARD]
        except (KeyError, TypeError):  # no such key, or past a number leaf
            path = [f"{kind}={k}" if kind in _AXES else str(k) for kind, k
                    in zip(kinds + (None,) * len(keys), keys[:depth + 1])]
            raise CalibrationLookupError(".".join([block, *path])) from None
    return entry


# ---------------------------------------------------------------------------
# fitting

def fit_linear(series: MeasurementSeries) -> LinearFit:
    """Ordinary least squares y = slope*x + intercept, with residual RMS."""
    x = np.asarray(series.predictor, dtype=float)
    y = np.asarray(series.response, dtype=float)
    if len(np.unique(x)) < 2:
        raise DegenerateFitError("need at least 2 distinct predictor values")
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(residual**2)))
    return LinearFit(slope=float(slope), intercept=float(intercept), rms=rms)


FIT_LABELS = (
    "dotted coefficient path: kpi.<strategy>.<rho|*>.<d|m>, "
    "sigma.<class>.<rho>.<nu> (series in ms), or sdl_linear.<class>.<metric>; "
    "rho/nu may be written with a decimal point (1.0)"
)


def fit_fragment(label: str, fit: LinearFit) -> dict:
    """The calibration fragment that sets the coefficient `label` names
    (FIT_LABELS) to `fit`: the slope, and the intercept where the leaf is a
    line.  The label's fields are the block's key kinds in _BLOCKS, then d
    or m for the downtime or duration half of a kpi line; an axis field
    joins "1" "0" back into "1.0" while enough tokens follow, so with an
    odd token left the earlier field binds it.  Each key and number is read
    as load_calibration reads it (CalibrationError if refused), one field
    at a time, so a kpi fragment is half a line.
    """
    block, *tokens = label.split(".")
    if block not in ("kpi", "sigma", "sdl_linear"):
        raise CalibrationError(f"unrecognized label {label!r} ({FIT_LABELS})")
    _, kinds, leaf = _BLOCKS[block]
    halves = block == "kpi"
    path = [block]
    for kind in kinds:
        if not tokens:
            raise CalibrationError(
                f"label {label!r} is too short ({FIT_LABELS})")
        after = len(kinds) + halves - len(path)  # fields still to come
        width = 1 + (kind in _AXES and len(tokens) >= after + 2
                     and tokens[0].isdigit() and tokens[1].isdigit())
        raw = ".".join(tokens[:width])
        del tokens[:width]
        _key(kind, raw, ".".join(path))
        path.append(raw)
    if halves:
        if tokens not in (["d"], ["m"]):
            raise CalibrationError(
                f"kpi label must end in .d or .m ({label!r}, {FIT_LABELS})")
        half = "_" + tokens.pop()
        leaf = {f: read for f, read in leaf.items() if f.endswith(half)}
    if tokens:
        raise CalibrationError(
            f"trailing tokens in label {label!r} ({FIT_LABELS})")
    where = ".".join(path)
    if isinstance(leaf, dict):  # a line: its slope field, then its intercept
        value = {f: read(v, f"{where}.{f}") for (f, read), v
                 in zip(leaf.items(), (fit.slope, fit.intercept))}
    else:
        value = leaf(fit.slope, where)
    for key in reversed(path):
        value = {key: value}
    return value


def read_measurement_csv(path, label: str = "") -> MeasurementSeries:
    """Parse a two-column `predictor,response` CSV into a series."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["predictor", "response"]:
            raise ValueError(f"{path}: expected header 'predictor,response'")
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise DegenerateFitError(f"{path}: need at least 2 rows")
    try:
        return MeasurementSeries(predictor=tuple(xs), response=tuple(ys),
                                 label=label)
    except ValueError as exc:
        # numerically parseable but unusable for a fit
        raise DegenerateFitError(f"{path}: {exc}") from None
