"""Analytical KPI, resource, and energy models for xApp migration planning.

Every function here is a pure evaluation of a fitted affine model, in SI
units: seconds, joules, bytes, watts, gigabytes, virtual cores.  State sizes
enter calibration lookups in megabytes (rho_mb = state_size / 1e6).

Count-zero rule: a model term that describes work (migration engine run,
instantiation, defrag of a class) contributes nothing when its count is zero,
even if the fitted line has a nonzero intercept.  The intercept pays for setup
that does not happen when nothing moves.  Backend-share terms are different:
the shared state backend idles even at zero xApps, so its per-class intercepts
always accrue for declared classes.

Clamp rule: affine extrapolation far below the measured range can go
negative (some backend slopes are negative); every evaluated expression,
including each per-class backend term, is floored at zero before aggregation.

Tolerance rule: a value breaks a capacity, budget or window limit only when
`exceeds` says so, i.e. when it is above the limit by more than a relative
1e-9 of floating-point noise.  This is the one tolerance of the package: the
plan validator, the solvers, the baseline and the energy model's window guard
all compare through it, so none of them can accept what another rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .calibration import WILDCARD, CalibrationSet, lookup

RESOURCES = ("CPU", "MEM", "DISK")
_SLACK = 1e-9  # relative slack on limit comparisons (fp noise)


class StrategyId(str, Enum):
    SDL = "sdl"
    SM_MR = "sm-mr"
    SM_MD = "sm-md"


SM_STRATEGIES = (StrategyId.SM_MR, StrategyId.SM_MD)


class ModelDomainError(ValueError):
    """An input left the domain the models are defined on."""


def _clamp(x: float) -> float:
    return x if x > 0.0 else 0.0


def allowance(limit: float) -> float:
    """The largest value that does not break limit (see `exceeds`)."""
    return limit * (1.0 + _SLACK)


def exceeds(value: float, limit: float) -> bool:
    """Whether value breaks limit by more than floating-point noise."""
    return value > allowance(limit)


def _as_strategy(strategy) -> StrategyId:
    return strategy if isinstance(strategy, StrategyId) else StrategyId(strategy)


def _check_count(n, what: str) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {n!r}")
    return int(n)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class XAppClass:
    """A traffic class: periodic messages of msg_size bytes every msg_period s."""

    id: str
    msg_size: float
    msg_period: float

    def __post_init__(self):
        if self.msg_size <= 0:
            raise ValueError(f"class {self.id}: msg_size must be > 0")
        if self.msg_period <= 0:
            raise ValueError(f"class {self.id}: msg_period must be > 0")


@dataclass(frozen=True)
class ScenarioParams:
    """Per-slot planning parameters.

    state_size: container state per xApp, bytes.
    maintenance_period: backend maintenance interval nu, seconds.
    slot_length: planning slot dT, seconds.
    max_sm_downtime: per-server downtime budget for stateful migration, s.
    max_defrag_downtime: budget for the backend defrag pause, s.
    """

    state_size: float
    maintenance_period: float
    slot_length: float
    max_sm_downtime: float
    max_defrag_downtime: float
    strategy: StrategyId

    def __post_init__(self):
        object.__setattr__(self, "strategy", _as_strategy(self.strategy))
        if self.state_size <= 0:
            raise ValueError("state_size must be > 0")
        if self.maintenance_period <= 0:
            raise ValueError("maintenance_period must be > 0")
        if self.slot_length <= 0:
            raise ValueError("slot_length must be > 0")
        if self.max_defrag_downtime <= 0:
            raise ValueError("max_defrag_downtime must be > 0")
        if self.max_sm_downtime < 0:
            raise ValueError("max_sm_downtime must be >= 0")

    @property
    def rho_mb(self) -> float:
        return self.state_size / 1e6


@dataclass(frozen=True)
class ServerSpec:
    id: str
    optional_flag: bool
    cpu_cap: float
    mem_cap: float
    disk_cap: float

    def __post_init__(self):
        if min(self.cpu_cap, self.mem_cap, self.disk_cap) <= 0:
            raise ValueError(f"server {self.id}: capacities must be > 0")


@dataclass(frozen=True)
class ClusterState:
    """Cluster snapshot at the start of a planning slot.

    initial_counts maps class id to a per-server tuple, aligned with
    `servers`; key order defines the canonical class order.  The virtual
    staging server for pending deployments is not part of this state, the
    solver synthesizes it.
    """

    servers: tuple
    initial_counts: Mapping[str, tuple]
    initial_active: tuple
    pending_deploys: Mapping[str, int] = field(default_factory=dict)
    pending_undeploys: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        servers = tuple(self.servers)
        object.__setattr__(self, "servers", servers)
        if not servers:
            raise ValueError("cluster needs at least one server")
        ids = [s.id for s in servers]
        if len(set(ids)) != len(ids):
            raise ValueError("server ids must be unique")
        if all(s.optional_flag for s in servers):
            raise ValueError("at least one server must be mandatory (optional_flag=0)")

        counts = {}
        for cls, row in self.initial_counts.items():
            row = tuple(_check_count(v, f"initial_counts[{cls}]") for v in row)
            if len(row) != len(servers):
                raise ValueError(f"initial_counts[{cls}]: expected {len(servers)} entries")
            counts[cls] = row
        object.__setattr__(self, "initial_counts", counts)

        active = tuple(1 if a else 0 for a in self.initial_active)
        if len(active) != len(servers):
            raise ValueError("initial_active length must match servers")
        object.__setattr__(self, "initial_active", active)
        for cls, row in counts.items():
            for s, n in enumerate(row):
                if n > 0 and not active[s]:
                    raise ValueError(
                        f"initial_counts[{cls}][{ids[s]}] > 0 on an inactive server"
                    )

        for name in ("pending_deploys", "pending_undeploys"):
            pend = dict(getattr(self, name))
            for cls in pend:
                if cls not in counts:
                    raise ValueError(f"{name}: unknown class {cls!r}")
            full = {cls: _check_count(pend.get(cls, 0), f"{name}[{cls}]") for cls in counts}
            object.__setattr__(self, name, full)
        for cls, row in counts.items():
            if self.pending_undeploys[cls] > sum(row):
                raise ValueError(f"pending_undeploys[{cls}] exceeds hosted count")

    @property
    def classes(self) -> tuple:
        return tuple(self.initial_counts.keys())

    def total_count(self, cls: str) -> int:
        return sum(self.initial_counts[cls])


@dataclass(frozen=True)
class KpiBundle:
    """Derived timing KPIs for one evaluated plan.

    downtime and migration_duration are per (class, source server);
    instantiation is per (class, destination server); defrag_downtime and
    active_time are cluster-wide.
    """

    downtime: Mapping[str, tuple]
    migration_duration: Mapping[str, tuple]
    instantiation: Mapping[str, tuple]
    defrag_downtime: float
    active_time: float


@dataclass(frozen=True)
class SdlFeasibility:
    feasible: bool
    defrag_downtime: float
    active_time: float


class ResourceUsage(NamedTuple):
    cpu: float
    mem: float
    disk: float

    def as_tuple(self) -> tuple:
        return tuple(self)


@dataclass(frozen=True)
class ClusterEnergyResult:
    total: float
    per_server: Mapping[str, float]


# ---------------------------------------------------------------------------
# KPI models

def traffic_load(cls: XAppClass, count: int) -> float:
    """Aggregate message rate of `count` xApps of a class, bytes per second."""
    count = _check_count(count, "count")
    return count * cls.msg_size / cls.msg_period


def sm_downtime(strategy, outgoing_count: int, cal: CalibrationSet, rho_mb: float) -> float:
    """Service downtime at a source server migrating `outgoing_count` xApps."""
    strategy = _as_strategy(strategy)
    if strategy not in SM_STRATEGIES:
        raise ValueError("sm_downtime applies to stateful-migration strategies only")
    outgoing_count = _check_count(outgoing_count, "outgoing_count")
    c = lookup(cal, "kpi", strategy.value, rho_mb)
    if outgoing_count == 0:
        return 0.0
    return _clamp(c["delta_d"] * outgoing_count + c["b_d"])


def sdl_downtime() -> float:
    """Backend-assisted migration never interrupts service."""
    return 0.0


def migration_duration(strategy, outgoing_count: int, cal: CalibrationSet,
                       rho_mb: float = None) -> float:
    """Wall-clock length of the migration run at a source server.

    Zero when nothing migrates (the engine does not start).  For the
    restore-based strategy duration equals downtime by construction.
    """
    strategy = _as_strategy(strategy)
    outgoing_count = _check_count(outgoing_count, "outgoing_count")
    if outgoing_count == 0:
        return 0.0
    if strategy is not StrategyId.SDL and rho_mb is None:
        raise ValueError("rho_mb required for stateful-migration strategies")
    c = lookup(cal, "kpi", strategy.value, rho_mb)
    return _clamp(c["delta_m"] * outgoing_count + c["b_m"])


def instantiation_time(new_count: int, cal: CalibrationSet) -> float:
    """Time to instantiate `new_count` fresh xApps on a server; 0 for none."""
    new_count = _check_count(new_count, "new_count")
    if new_count == 0:
        return 0.0
    c = lookup(cal, "kpi", StrategyId.SDL.value, WILDCARD)
    return _clamp(c["delta_m"] * new_count + c["b_m"])


def defrag_downtime(counts: Mapping[str, int], cal: CalibrationSet,
                    rho_mb: float, nu_s: float) -> float:
    """Backend maintenance pause per period: sum of sigma_k * N_k, seconds."""
    total = 0.0
    for cls, n in counts.items():
        n = _check_count(n, f"counts[{cls}]")
        if n == 0:
            continue
        # sigma is calibrated in ms per xApp
        total += lookup(cal, "sigma", cls, rho_mb, nu_s) / 1000.0 * n
    return total


def sdl_feasible(counts: Mapping[str, int], params: ScenarioParams,
                 cal: CalibrationSet) -> SdlFeasibility:
    """Whether the backend survives maintenance under the given population.

    Feasible iff the defrag pause stays strictly under its budget and leaves
    strictly positive active time within each maintenance period.
    """
    t_df = defrag_downtime(counts, cal, params.rho_mb, params.maintenance_period)
    active = params.maintenance_period - t_df
    ok = t_df < params.max_defrag_downtime and active > 0.0
    return SdlFeasibility(feasible=ok, defrag_downtime=t_df, active_time=active)


# ---------------------------------------------------------------------------
# resource models

def strategy_overhead(strategy, resource: str, total_counts: Mapping[str, int],
                      server_count: int, cal: CalibrationSet,
                      server_participates: bool) -> float:
    """Intrinsic per-server resource cost of the migration machinery.

    Backend strategy: an equal 1/|S| share of the backend footprint, charged
    to active servers only; per-class terms clamp at zero individually.
    Stateful strategies: a constant on servers actually running the engine
    (nonzero outgoing), zero elsewhere; memory and disk cost is negligible.
    """
    strategy = _as_strategy(strategy)
    if resource not in RESOURCES:
        raise ValueError(f"unknown resource {resource!r}")
    if server_count < 1:
        raise ValueError("server_count must be >= 1")
    if not server_participates:
        return 0.0
    if strategy is StrategyId.SDL:
        acc = 0.0
        for cls, n in total_counts.items():
            line = lookup(cal, "sdl_linear", cls, resource)
            acc += _clamp(line["delta"] * n + line["b"])
        return acc / server_count
    return lookup(cal, "sm_overhead", strategy.value, resource)


def server_resources(server: ServerSpec, active: bool,
                     hosted_counts: Mapping[str, int], strategy,
                     cal: CalibrationSet, *, total_counts: Mapping[str, int],
                     server_count: int, participates: bool) -> ResourceUsage:
    """CPU/MEM/DISK usage of one server under a final hosting assignment.

    active gates the idle footprint; participates is strategy-specific (see
    strategy_overhead).  Per-xApp disk load is negligible and calibrated 0.
    """
    usage = []
    for resource in RESOURCES:
        v = (lookup(cal, "server_idle", resource) if active else 0.0)
        for cls, n in hosted_counts.items():
            v += lookup(cal, "xapp_load", cls, resource) \
                * _check_count(n, f"hosted[{cls}]")
        v += strategy_overhead(strategy, resource, total_counts, server_count,
                               cal, participates)
        usage.append(_clamp(v))
    return ResourceUsage(*usage)


# ---------------------------------------------------------------------------
# energy models

def sm_migration_energy(strategy, durations, cal: CalibrationSet) -> float:
    """Energy of the migration engine at a source server, joules.

    `durations` is the per-class migration durations (seconds), or their sum.
    """
    strategy = _as_strategy(strategy)
    if strategy not in SM_STRATEGIES:
        raise ValueError("sm_migration_energy applies to stateful strategies only")
    total = sum(durations) if isinstance(durations, Iterable) else float(durations)
    if total < 0:
        raise ValueError("durations must be non-negative")
    return lookup(cal, "sm_overhead", strategy.value, "E") * total


def sdl_energy_per_server(total_counts: Mapping[str, int], server_count: int,
                          slot_length: float, cal: CalibrationSet) -> float:
    """Per-server share of the backend energy over a slot, joules.

    The backend idles even with zero xApps: per-class intercepts accrue for
    every declared class.  Per-class terms clamp at zero individually.
    """
    if server_count < 1:
        raise ValueError("server_count must be >= 1")
    if slot_length < 0:
        raise ValueError("slot_length must be >= 0")
    acc = 0.0
    for cls, n in total_counts.items():
        line = lookup(cal, "sdl_linear", cls, "E")
        acc += _clamp(line["delta"] * _check_count(n, f"counts[{cls}]")
                      + line["b"])
    return slot_length / server_count * acc


def server_energy(outgoing: Mapping[str, int], incoming: Mapping[str, int],
                  staying: Mapping[str, int], new: Mapping[str, int],
                  n0_s: Mapping[str, int], mu_s: int, totals: Mapping[str, int],
                  server_count: int, params: ScenarioParams,
                  cal: CalibrationSet) -> float:
    """Slot energy of one server, joules.

    Three parts: the migration machinery itself; the migration window, billed
    at the initial hosting (the server still runs its old population while
    state moves); and the steady remainder of the slot, billed at the final
    hosting, which is zero for a server that ends the slot off and empty.

    outgoing/incoming/staying/new are per-class xApp counts for this server;
    totals is the cluster-wide final population (backend share); mu_s the
    final activation.  Raises ModelDomainError if the window exceeds the slot.
    """
    strategy = params.strategy
    rho = params.rho_mb

    window = 0.0
    durations = []
    for cls in totals:
        t_m = migration_duration(strategy, outgoing.get(cls, 0), cal, rho)
        durations.append(t_m)
        window += t_m + instantiation_time(new.get(cls, 0), cal)
    if exceeds(window, params.slot_length):
        raise ModelDomainError(
            f"migration window {window:.6g} s exceeds slot length "
            f"{params.slot_length:.6g} s"
        )

    if strategy is StrategyId.SDL:
        e_tau = sdl_energy_per_server(totals, server_count, params.slot_length, cal) \
            if mu_s else 0.0
    else:
        e_tau = sm_migration_energy(strategy, durations, cal)

    q_e = lookup(cal, "server_idle", "E")
    initial_power = q_e + sum(
        lookup(cal, "xapp_load", cls, "E") * n0_s.get(cls, 0) for cls in totals
    )
    final_power = (q_e if mu_s else 0.0) + sum(
        lookup(cal, "xapp_load", cls, "E")
        * (staying.get(cls, 0) + incoming.get(cls, 0) + new.get(cls, 0))
        for cls in totals
    )
    return _clamp(
        e_tau + window * initial_power + (params.slot_length - window) * final_power
    )


def plan_aggregates(plan, n_servers: int):
    """(o, m, d, h): per class and server, the xApps that leave for another
    server, arrive from one, are deployed from staging and end the slot
    there.  The one reader of plan.x, each class's (n+1)x(n+1) matrix whose
    row and column n are the virtual staging server."""
    n = n_servers
    o, m, d, h = {}, {}, {}, {}
    for cls, rows in plan.x.items():
        sources = rows[:n]
        stay = [row[s] for s, row in enumerate(sources)]
        o[cls] = tuple(sum(row[:n]) - st for row, st in zip(sources, stay))
        m[cls] = tuple(sum(col) - st for col, st in zip(zip(*sources), stay))
        d[cls] = tuple(rows[n][:n])
        h[cls] = tuple(map(sum, zip(stay, m[cls], d[cls])))
    return o, m, d, h


def cluster_energy(plan, state: ClusterState, params: ScenarioParams,
                   cal: CalibrationSet) -> ClusterEnergyResult:
    """Total slot energy of the cluster plus the per-server breakdown.

    `plan` supplies the migration matrices (see plan_aggregates) and the
    activation vector mu.  The staging server itself draws nothing.
    """
    n_srv = len(state.servers)
    classes = state.classes
    o, m, d, h = plan_aggregates(plan, n_srv)
    totals = {cls: sum(h[cls]) for cls in classes}

    per_server = {}
    total = 0.0
    for s, spec in enumerate(state.servers):
        e = server_energy(
            {cls: o[cls][s] for cls in classes},
            {cls: m[cls][s] for cls in classes},
            {cls: h[cls][s] - m[cls][s] - d[cls][s] for cls in classes},
            {cls: d[cls][s] for cls in classes},
            {cls: state.initial_counts[cls][s] for cls in classes},
            plan.mu[s], totals, n_srv, params, cal)
        per_server[spec.id] = e
        total += e
    return ClusterEnergyResult(total=total, per_server=per_server)
