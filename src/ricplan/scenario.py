"""JSON scenario and sweep-grid files.

Thin, strict parsing through the readers of `reader`: unknown keys are
rejected, every number must be finite and every complaint names the
offending field, so a typo in a scenario fails loudly instead of silently
running with a default.
"""

from __future__ import annotations

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
        XAppClass, at, **_read.record(entry, at, _CLASS)), nonempty=True)
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


def parse_scenario(source, strategy_override: Optional[str] = None) -> ScenarioFile:
    """Parse a scenario JSON file or mapping into typed objects."""

    # ClusterState judges the server count, lengths and pending class ids
    def row(raw, where):
        return _read.items(raw, where, _read.count)

    def counts(raw, where):
        ids = [c.id for c in got["classes"]]
        return _read.record(raw, where, dict.fromkeys(ids, row),
                            dict.fromkeys(ids, [0] * len(got["servers"])),
                            f"{where}[", "]")

    def active(raw, where):
        if raw is _ALL_ACTIVE:
            return (True,) * len(got["servers"])
        return _read.items(raw, where, _read.flag)

    def pending(raw, where):
        return _read.table(raw, where, _read.count)

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
        return _read.items(raw, where, _read.number, nonempty=True)

    fields = _read.record(_read.document(source), "sweep", {
        "classes": _classes,
        "count_range": lambda raw, where: _read.items(raw, where, _read.count),
        "strategies": lambda raw, where: _read.items(
            raw, where, lambda v, _: _strategy(v, where).value, nonempty=True),
        "dominant_class": _read.text,
        "dominant_share": _read.number,
        "rho_list_mb": numbers,
        "nu_list_s": numbers,
    }, {"dominant_share": 0.75}, prefix="")
    return _build(SweepSpec, None, **fields)
