"""JSON scenario and sweep-grid files.

Thin, strict parsing: unknown keys are rejected and every complaint names
the offending field, so a typo in a scenario fails loudly instead of
silently running with a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Tuple

from .model import (
    ClusterState,
    ScenarioParams,
    ServerSpec,
    StrategyId,
    XAppClass,
)
from .orchestrator import SweepSpec
from .problem import SolveLimits


class ScenarioError(ValueError):
    """A scenario or sweep file failed validation."""


_PARAM_DEFAULTS = {
    "maintenance_period": 1.0,
    "slot_length": 3600.0,
    "max_sm_downtime": 300.0,
    "max_defrag_downtime": 1.0,
}


@dataclass(frozen=True)
class ScenarioFile:
    classes: Tuple[XAppClass, ...]
    state: ClusterState
    params: ScenarioParams
    limits: SolveLimits


def _load(source) -> Mapping:
    if isinstance(source, Mapping):
        return source
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{path}: top level must be an object")
    return data


def _check_keys(obj: Mapping, allowed, where: str):
    extra = set(obj) - set(allowed)
    if extra:
        raise ScenarioError(
            f"{where}: unknown key(s) {', '.join(sorted(repr(k) for k in extra))}"
        )


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(
            f"{where}: expected a non-negative integer, got {value!r}"
        )
    return value


def _flag(value, where: str) -> bool:
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ScenarioError(
        f"{where}: expected true, false, 0 or 1, got {value!r}")


def _classes(raw) -> Tuple[XAppClass, ...]:
    """The `classes` list of a scenario or sweep file."""
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("classes: expected a non-empty list")
    classes = []
    for i, entry in enumerate(raw):
        where = f"classes[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{where}: expected an object")
        _check_keys(entry, ("id", "msg_size", "msg_period"), where)
        fields = dict(
            id=str(_require(entry, "id", where)),
            msg_size=_number(_require(entry, "msg_size", where),
                             f"{where}.msg_size"),
            msg_period=_number(_require(entry, "msg_period", where),
                               f"{where}.msg_period"),
        )
        try:
            classes.append(XAppClass(**fields))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    return tuple(classes)


def parse_scenario(source, strategy_override: Optional[str] = None) -> ScenarioFile:
    """Parse a scenario JSON file or mapping into typed objects."""
    data = _load(source)
    _check_keys(data, ("classes", "servers", "initial_counts", "initial_active",
                       "pending_deploys", "pending_undeploys", "params",
                       "limits"), "scenario")

    classes = _classes(_require(data, "classes", "scenario"))
    class_ids = [c.id for c in classes]
    if len(set(class_ids)) != len(class_ids):
        raise ScenarioError("classes: duplicate class ids")

    raw_servers = _require(data, "servers", "scenario")
    if not isinstance(raw_servers, list) or not raw_servers:
        raise ScenarioError("servers: expected a non-empty list")
    servers = []
    for i, entry in enumerate(raw_servers):
        where = f"servers[{i}]"
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{where}: expected an object")
        _check_keys(entry, ("id", "optional", "cpu_cap", "mem_cap",
                            "disk_cap"), where)
        fields = dict(
            id=str(_require(entry, "id", where)),
            optional_flag=_flag(entry.get("optional", False),
                                f"{where}.optional"),
            cpu_cap=_number(_require(entry, "cpu_cap", where),
                            f"{where}.cpu_cap"),
            mem_cap=_number(_require(entry, "mem_cap", where),
                            f"{where}.mem_cap"),
            disk_cap=_number(_require(entry, "disk_cap", where),
                             f"{where}.disk_cap"),
        )
        try:
            servers.append(ServerSpec(**fields))
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    n_srv = len(servers)
    raw_counts = data.get("initial_counts", {})
    if not isinstance(raw_counts, Mapping):
        raise ScenarioError("initial_counts: expected an object")
    counts = {}
    for cls in raw_counts:
        if cls not in class_ids:
            raise ScenarioError(f"initial_counts: unknown class {cls!r}")
    for cls in class_ids:
        row = raw_counts.get(cls, [0] * n_srv)
        if not isinstance(row, list) or len(row) != n_srv:
            raise ScenarioError(
                f"initial_counts[{cls}]: expected a list of {n_srv} counts"
            )
        counts[cls] = tuple(
            _count(v, f"initial_counts[{cls}][{i}]") for i, v in enumerate(row)
        )

    raw_active = data.get("initial_active", [1] * n_srv)
    if not isinstance(raw_active, list) or len(raw_active) != n_srv:
        raise ScenarioError(f"initial_active: expected a list of {n_srv} flags")

    pend = {}
    for key in ("pending_deploys", "pending_undeploys"):
        raw = data.get(key, {})
        if not isinstance(raw, Mapping):
            raise ScenarioError(f"{key}: expected an object")
        for cls in raw:
            if cls not in class_ids:
                raise ScenarioError(f"{key}: unknown class {cls!r}")
        pend[key] = {cls: _count(v, f"{key}[{cls}]") for cls, v in raw.items()}

    raw_params = _require(data, "params", "scenario")
    if not isinstance(raw_params, Mapping):
        raise ScenarioError("params: expected an object")
    _check_keys(raw_params, ("state_size", "maintenance_period", "slot_length",
                             "max_sm_downtime", "max_defrag_downtime",
                             "strategy"), "params")
    strategy = strategy_override or raw_params.get("strategy")
    if strategy is None:
        raise ScenarioError(
            "params.strategy: required (set it in the file or pass --strategy)"
        )
    try:
        strategy = StrategyId(strategy)
    except ValueError as exc:
        raise ScenarioError(
            f"params.strategy: unknown strategy {strategy!r}"
        ) from exc
    kw = {"strategy": strategy,
          "state_size": _number(_require(raw_params, "state_size", "params"),
                                "params.state_size")}
    for key, default in _PARAM_DEFAULTS.items():
        kw[key] = _number(raw_params.get(key, default), f"params.{key}")
    try:
        params = ScenarioParams(**kw)
    except ValueError as exc:
        raise ScenarioError(f"params: {exc}") from exc

    raw_limits = data.get("limits", {})
    if not isinstance(raw_limits, Mapping):
        raise ScenarioError("limits: expected an object")
    _check_keys(raw_limits, ("time_limit", "gap_target"), "limits")
    limits = SolveLimits(
        time_limit=_number(raw_limits.get("time_limit", 300.0),
                           "limits.time_limit"),
        gap_target=_number(raw_limits.get("gap_target", 0.0),
                           "limits.gap_target"),
    )

    try:
        state = ClusterState(
            servers=tuple(servers),
            initial_counts=counts,
            initial_active=tuple(_flag(v, f"initial_active[{i}]")
                                 for i, v in enumerate(raw_active)),
            pending_deploys=pend["pending_deploys"],
            pending_undeploys=pend["pending_undeploys"],
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return ScenarioFile(classes=classes, state=state, params=params,
                        limits=limits)


def parse_sweep(source) -> SweepSpec:
    """Parse a sweep-grid JSON file or mapping."""
    data = _load(source)
    _check_keys(data, ("classes", "dominant_class", "dominant_share",
                       "count_range", "rho_list_mb", "nu_list_s",
                       "strategies"), "sweep")
    classes = _classes(_require(data, "classes", "sweep"))

    def _float_list(key):
        raw = _require(data, key, "sweep")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{key}: expected a non-empty list")
        return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(raw))

    raw_counts = _require(data, "count_range", "sweep")
    if not isinstance(raw_counts, list):
        raise ScenarioError("count_range: expected a list")
    count_range = tuple(
        _count(v, f"count_range[{i}]") for i, v in enumerate(raw_counts)
    )

    raw_strategies = _require(data, "strategies", "sweep")
    if not isinstance(raw_strategies, list) or not raw_strategies:
        raise ScenarioError("strategies: expected a non-empty list")
    for st in raw_strategies:
        try:
            StrategyId(st)
        except ValueError as exc:
            raise ScenarioError(f"strategies: unknown strategy {st!r}") from exc

    try:
        return SweepSpec(
            classes=classes,
            dominant_class=str(_require(data, "dominant_class", "sweep")),
            dominant_share=_number(data.get("dominant_share", 0.75),
                                   "dominant_share"),
            count_range=count_range,
            rho_list_mb=_float_list("rho_list_mb"),
            nu_list_s=_float_list("nu_list_s"),
            strategies=tuple(str(s) for s in raw_strategies),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
