"""JSON scenario and sweep-grid files.

Thin, strict parsing through the readers of `reader`: unknown keys are
rejected, every number must be finite and every complaint names the
offending field, so a typo in a scenario fails loudly instead of silently
running with a default.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Tuple

from .model import (
    ClusterState,
    ScenarioParams,
    ServerSpec,
    StrategyId,
    XAppClass,
)
from .orchestrator import SweepSpec
from .problem import SolveLimits
from .reader import Reader


class ScenarioError(ValueError):
    """A scenario or sweep file failed validation."""


_read = Reader(ScenarioError)
_CLASS = {"id": _read.text, "msg_size": _read.number,
          "msg_period": _read.number}
_SERVER = {"id": _read.text, "optional": _read.flag, "cpu_cap": _read.number,
           "mem_cap": _read.number, "disk_cap": _read.number}
_PARAMS = {"state_size": _read.number,
           "maintenance_period": _read.number, "slot_length": _read.number,
           "max_sm_downtime": _read.number,
           "max_defrag_downtime": _read.number}
_PARAM_DEFAULTS = {
    "strategy": None,
    "maintenance_period": 1.0,
    "slot_length": 3600.0,
    "max_sm_downtime": 300.0,
    "max_defrag_downtime": 1.0,
}
_LIMITS = {"time_limit": _read.nonnegative, "gap_target": _read.nonnegative}
_ALL_ACTIVE = object()  # the default of `initial_active`


@dataclass(frozen=True)
class ScenarioFile:
    classes: Tuple[XAppClass, ...]
    state: ClusterState
    params: ScenarioParams
    limits: SolveLimits


def _build(make, where: Optional[str], **fields):
    """make(**fields); a complaint of the object itself gets `where`."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from exc


def _classes(raw, where) -> Tuple[XAppClass, ...]:
    """The `classes` list of a scenario or sweep file."""
    classes = _read.items(raw, where, lambda entry, at: _build(
        XAppClass, at, **_read.record(entry, at, _CLASS)))
    if len({c.id for c in classes}) != len(classes):
        raise ScenarioError(f"{where}: duplicate class ids")
    return classes


def _server(raw, where) -> ServerSpec:
    fields = _read.record(raw, where, _SERVER, {"optional": False})
    return _build(ServerSpec, where, optional_flag=fields.pop("optional"),
                  **fields)


def _strategy(value, where) -> StrategyId:
    try:
        return StrategyId(value)
    except ValueError as exc:
        raise ScenarioError(f"{where}: unknown strategy {value!r}") from exc


def _by_class(raw, where, classes):
    """The object `raw`, keyed by ids of `classes`."""
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    ids = {c.id for c in classes}
    for cls in raw:
        if cls not in ids:
            raise ScenarioError(f"{where}: unknown class {cls!r}")
    return raw


def parse_scenario(source, strategy_override: Optional[str] = None) -> ScenarioFile:
    """Parse a scenario JSON file or mapping into typed objects."""

    def counts(raw, where):
        rows, n = _by_class(raw, where, got["classes"]), len(got["servers"])
        return {c.id: _read.items(rows.get(c.id, [0] * n), f"{where}[{c.id}]",
                                  _read.count, f"a list of {n} counts",
                                  lambda row: len(row) == n)
                for c in got["classes"]}

    def active(raw, where):
        n = len(got["servers"])
        if raw is _ALL_ACTIVE:
            return (True,) * n
        return _read.items(raw, where, _read.flag, f"a list of {n} flags",
                           lambda row: len(row) == n)

    def pending(raw, where):
        return {cls: _read.count(v, f"{where}[{cls}]")
                for cls, v in _by_class(raw, where, got["classes"]).items()}

    def strategy(raw, where):
        raw = strategy_override or raw
        if raw is None:
            raise ScenarioError(
                f"{where}: required (set it in the file or pass --strategy)")
        return _strategy(raw, where)

    def params(raw, where):
        fields = _read.record(raw, where, {"strategy": strategy, **_PARAMS},
                              _PARAM_DEFAULTS)
        return _build(ScenarioParams, where, **fields)

    got = {}
    _read.record(_read.document(source), "scenario", {
        "classes": _classes,
        "servers": lambda raw, where: _read.items(raw, where, _server),
        "initial_counts": counts,
        "initial_active": active,
        "pending_deploys": pending,
        "pending_undeploys": pending,
        "params": params,
        "limits": lambda raw, where: SolveLimits(
            **_read.record(raw, where, _LIMITS,
                           {"time_limit": 300.0, "gap_target": 0.0})),
    }, {"initial_counts": {}, "initial_active": _ALL_ACTIVE,
        "pending_deploys": {}, "pending_undeploys": {}, "limits": {}},
        prefix="", into=got)
    state = _build(ClusterState, None, servers=got["servers"],
                   initial_counts=got["initial_counts"],
                   initial_active=got["initial_active"],
                   pending_deploys=got["pending_deploys"],
                   pending_undeploys=got["pending_undeploys"])
    return ScenarioFile(classes=got["classes"], state=state,
                        params=got["params"], limits=got["limits"])


def parse_sweep(source) -> SweepSpec:
    """Parse a sweep-grid JSON file or mapping."""

    def numbers(raw, where):
        return _read.items(raw, where, _read.number)

    fields = _read.record(_read.document(source), "sweep", {
        "classes": _classes,
        "count_range": lambda raw, where: _read.items(
            raw, where, _read.count, "a list", lambda row: True),
        "strategies": lambda raw, where: _read.items(
            raw, where, lambda v, at: _strategy(v, where).value),
        "dominant_class": _read.text,
        "dominant_share": _read.number,
        "rho_list_mb": numbers,
        "nu_list_s": numbers,
    }, {"dominant_share": 0.75}, prefix="")
    return _build(SweepSpec, None, **fields)
