"""Planning-slot optimization problem: variables, constraints, objective.

A plan decides, per xApp class, how many instances move between each pair of
servers (x[class][src][dst], the last index being the virtual staging server
that holds pending deployments) and which servers stay powered (mu).  The
objective is total cluster energy over the slot.

Constraint labels follow the numbering used throughout reports and the CLI:
  (12) conservation: every row of x sums to the initial count at its source
  (13) nothing may flow into the staging server
  (14) the staging server ends the slot empty
  (15) only initially-active servers may send migrations
  (16) an optional server that stays on must host at least one xApp
  (17) hosting anything requires the server to be on
  (18) per-server resource capacities, final hosting
  (19) mandatory servers stay on; mu is binary, x non-negative integer
  (20) per-server migration downtime budget (stateful strategies)
  (21) backend maintenance feasibility (backend strategy)
plus "window": no server's migration window may exceed the slot.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional

from . import model
from .calibration import WILDCARD, CalibrationSet, lookup
from .model import (
    RESOURCES,
    ClusterState,
    KpiBundle,
    ScenarioParams,
    StrategyId,
    exceeds,
)
from .reader import Reader

STATUS_OPTIMAL = "optimal"
STATUS_GAP = "gap_reached"
STATUS_TIME = "time_limit"
STATUS_INFEASIBLE = "infeasible"
# a heuristic found no plan; that proves nothing about the scenario
STATUS_NO_PLAN = "no_plan"


@dataclass(frozen=True)
class SolveLimits:
    """Solver stopping rules."""

    time_limit: float = 300.0
    gap_target: float = 0.0


@dataclass(frozen=True)
class Coeffs:
    """The calibration constants of one problem, looked up once.

    idle and loads are keyed by metric (E, CPU, MEM, DISK); loads[metric][k]
    is the per-xApp slope of the k-th class in problem order.  overhead is
    what a participating server pays per resource (model.strategy_overhead).
    kpi is the strategy's {delta_d, b_d, delta_m, b_m} line at the scenario's
    state size, inst the instantiation line.  backend_energy is one server's
    share of the backend energy over the slot (backend strategy, else 0) and
    engine_power the migration engine's power (stateful strategies, else 0).
    """

    idle: Mapping[str, float]
    loads: Mapping[str, tuple]
    overhead: Mapping[str, float]
    kpi: Mapping[str, float]
    inst: Mapping[str, float]
    backend_energy: float
    engine_power: float


@dataclass(frozen=True)
class SalProblem:
    """Immutable problem instance.

    `staged` is the initial-count matrix extended with the staging-server row
    (index n_servers) holding pending deployments.
    """

    state: ClusterState
    params: ScenarioParams
    cal: CalibrationSet
    staged: Mapping[str, tuple]

    @property
    def n_servers(self) -> int:
        return len(self.state.servers)

    @property
    def classes(self) -> tuple:
        return self.state.classes

    @property
    def totals(self) -> dict:
        """Final population per class (deployments in, undeployments gone)."""
        return {cls: sum(row) for cls, row in self.staged.items()}

    @cached_property
    def coeffs(self) -> Coeffs:
        params, cal = self.params, self.cal
        strategy, totals, n = params.strategy, self.totals, self.n_servers
        sdl = strategy is StrategyId.SDL
        metrics = ("E",) + RESOURCES
        return Coeffs(
            idle={r: lookup(cal, "server_idle", r) for r in metrics},
            loads={r: tuple(lookup(cal, "xapp_load", cls, r)
                            for cls in self.classes) for r in metrics},
            overhead={r: model.strategy_overhead(strategy, r, totals, n, cal,
                                                 True) for r in RESOURCES},
            kpi=lookup(cal, "kpi", strategy.value, params.rho_mb),
            inst=lookup(cal, "kpi", StrategyId.SDL.value, WILDCARD),
            backend_energy=model.sdl_energy_per_server(
                totals, n, params.slot_length, cal) if sdl else 0.0,
            engine_power=0.0 if sdl else
            lookup(cal, "sm_overhead", strategy.value, "E"),
        )


class PlanError(ValueError):
    """A plan file or document failed validation."""


_read = Reader(PlanError)


def _integers(raw, where):
    return _read.items(raw, where, _read.integer)


# validate_plan judges the shape and recomputes the annotation to_dict adds
_ANNOTATION = ("activation_ratio", "energy_total_j", "energy_per_server_j",
               "kpi")
_PLAN = {"mu": _integers, "x": lambda raw, where: _read.table(
    raw, where, lambda rows, at: _read.items(rows, at, _integers)),
    **dict.fromkeys(_ANNOTATION, lambda raw, where: None)}


@dataclass(frozen=True)
class MigrationPlan:
    """A (possibly annotated) assignment of migrations and activations."""

    x: Mapping[str, tuple]
    mu: tuple
    kpi: Optional[KpiBundle] = None
    energy_total: Optional[float] = None
    energy_per_server: Optional[Mapping[str, float]] = None
    activation_ratio: Optional[float] = None

    def __post_init__(self):
        # operator.index takes integers only: 2.9 or "1" is a TypeError
        x = {cls: tuple(tuple(map(operator.index, row)) for row in rows)
             for cls, rows in self.x.items()}
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mu", tuple(map(operator.index, self.mu)))

    def to_dict(self) -> dict:
        doc = {
            "mu": list(self.mu),
            "x": {cls: [list(row) for row in rows] for cls, rows in self.x.items()},
        }
        if self.activation_ratio is not None:
            doc["activation_ratio"] = self.activation_ratio
        if self.energy_total is not None:
            doc["energy_total_j"] = self.energy_total
            doc["energy_per_server_j"] = dict(self.energy_per_server)
        if self.kpi is not None:
            doc["kpi"] = {
                "downtime_s": {c: list(v) for c, v in self.kpi.downtime.items()},
                "migration_duration_s": {
                    c: list(v) for c, v in self.kpi.migration_duration.items()
                },
                "instantiation_s": {
                    c: list(v) for c, v in self.kpi.instantiation.items()
                },
                "defrag_downtime_s": self.kpi.defrag_downtime,
                "active_time_s": self.kpi.active_time,
            }
        return doc

    @classmethod
    def from_dict(cls, source) -> "MigrationPlan":
        """The plan in `source`, a mapping or the path of a JSON file; every
        entry of `mu` and `x` must be a JSON integer (PlanError if not)."""
        fields = _read.record(_read.document(source), "plan", _PLAN,
                              dict.fromkeys(_ANNOTATION))
        return cls(x=fields["x"], mu=fields["mu"])


@dataclass
class SolveReport:
    status: str  # optimal | gap_reached | time_limit | infeasible | no_plan
    objective: Optional[float]
    lower_bound: float
    runtime: float
    nodes_explored: int
    detail: str = ""
    trace: tuple = field(default_factory=tuple, repr=False, compare=False)

    @property
    def mip_gap(self) -> float:
        return mip_gap(self.objective, self.lower_bound)

    def to_dict(self) -> dict:
        def _num(v):
            if v is None or (isinstance(v, float) and not math.isfinite(v)):
                return None
            return v
        return {
            "status": self.status,
            "objective_j": _num(self.objective),
            "lower_bound_j": _num(self.lower_bound),
            "mip_gap": _num(self.mip_gap),
            "runtime_s": self.runtime,
            "nodes_explored": self.nodes_explored,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidationResult:
    """The (tag, message) pair of every breach a plan makes, in the order
    validate_plan checks them; a tag repeats once per breach."""

    breaches: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.breaches

    @property
    def violations(self) -> tuple:
        """The tags broken, each once, in the order first broken."""
        return tuple(dict.fromkeys(tag for tag, _ in self.breaches))

    def __bool__(self) -> bool:
        return self.valid


def mip_gap(objective: Optional[float], lower_bound: float) -> float:
    if objective is None:
        return math.inf
    if not math.isfinite(lower_bound):
        return math.inf
    return max(0.0, objective - lower_bound) / max(objective, 1e-12)


# ---------------------------------------------------------------------------
# problem construction

def build_problem(state: ClusterState, params: ScenarioParams,
                  cal: CalibrationSet) -> SalProblem:
    """Assemble a solvable problem from a cluster snapshot.

    Undeployments must have been applied already (the orchestrator owns slot
    sequencing); pending deployments become the staging-server row.
    """
    if any(v > 0 for v in state.pending_undeploys.values()):
        raise ValueError("apply undeployments before building the problem")
    staged = {
        cls: tuple(state.initial_counts[cls]) + (state.pending_deploys[cls],)
        for cls in state.classes
    }
    return SalProblem(state=state, params=params, cal=cal, staged=staged)


def identity_plan(problem: SalProblem) -> MigrationPlan:
    """Everything stays put, deployments unassigned only if there are none."""
    n = problem.n_servers
    x = {}
    for cls in problem.classes:
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        for s in range(n):
            rows[s][s] = problem.staged[cls][s]
        x[cls] = rows
    mu = tuple(1 if (problem.state.initial_active[s] or
                     not problem.state.servers[s].optional_flag) else 0
               for s in range(n))
    return MigrationPlan(x=x, mu=mu)


# ---------------------------------------------------------------------------
# per-server rules

def _resource_participates(problem: SalProblem, mu_s: int, outgoing_s: int) -> bool:
    if problem.params.strategy is StrategyId.SDL:
        return bool(mu_s)
    return bool(mu_s) and outgoing_s > 0


# The three rules below are the fast path of the model functions named in
# their docstrings.  They read the problem's coefficients and sum in the same
# order as those functions, so they agree with them bit for bit.

def usage(problem: SalProblem, hosted, participates: bool) -> tuple:
    """(CPU, MEM, DISK) use (18) of a powered server hosting hosted[k] xApps
    of class k; model.server_resources."""
    co = problem.coeffs
    out = []
    for r in RESOURCES:
        v = co.idle[r]
        for p, n in zip(co.loads[r], hosted):
            v += p * n
        v += co.overhead[r] if participates else 0.0
        out.append(v if v > 0.0 else 0.0)
    return tuple(out)


def source_downtime(problem: SalProblem, outgoing) -> float:
    """Downtime (20) at a source sending outgoing[k] xApps of class k; the
    sum of model.sm_downtime."""
    c = problem.coeffs.kpi
    return sum(_floored(c["delta_d"], c["b_d"], n) for n in outgoing)


def source_window(problem: SalProblem, outgoing, deploys) -> float:
    """Migration window of a server sending outgoing[k] and instantiating
    deploys[k] xApps of class k; the sum of model.migration_duration and
    model.instantiation_time."""
    m, i = problem.coeffs.kpi, problem.coeffs.inst
    return sum(_floored(m["delta_m"], m["b_m"], o)
               + _floored(i["delta_m"], i["b_m"], d)
               for o, d in zip(outgoing, deploys))


def _floored(slope, intercept, n) -> float:
    """The line slope * n + intercept for n xApps, floored at zero (the
    model's Clamp rule); 0 for none."""
    if not n:
        return 0.0
    t = slope * n + intercept
    return t if t > 0.0 else 0.0


# ---------------------------------------------------------------------------
# validation

def validate_plan(problem: SalProblem, plan: MigrationPlan) -> ValidationResult:
    """Check every active constraint; violations are data, not errors.

    Raises ValueError only on a dimension mismatch between plan and problem.
    """
    n = problem.n_servers
    classes = problem.classes
    if set(plan.x.keys()) != set(classes):
        raise ValueError("plan classes do not match problem classes")
    if len(plan.mu) != n:
        raise ValueError(f"plan mu has {len(plan.mu)} entries, expected {n}")
    for cls in classes:
        rows = plan.x[cls]
        if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
            raise ValueError(f"plan x[{cls}] must be {n + 1}x{n + 1}")

    breaches = []

    def hit(tag: str, msg: str):
        breaches.append((tag, msg))

    negative = False
    for cls in classes:
        for row in plan.x[cls]:
            for v in row:
                if v < 0:
                    hit("(19)", f"negative migration count in class {cls}")
                    negative = True
                    break
    for s, v in enumerate(plan.mu):
        if v not in (0, 1):
            hit("(19)", f"mu[{problem.state.servers[s].id}] not binary")

    # (12) conservation at every source, staging row included
    for cls in classes:
        for s in range(n + 1):
            if sum(plan.x[cls][s]) != problem.staged[cls][s]:
                src = problem.state.servers[s].id if s < n else "staging"
                hit("(12)", f"class {cls} row {src} does not sum to its count")

    # (13) no inflow to staging
    inflow = sum(plan.x[cls][s][n] for cls in classes for s in range(n + 1))
    if inflow != 0:
        hit("(13)", f"{inflow} xApps routed into the staging server")

    # (14) staging drained
    for cls in classes:
        placed = sum(plan.x[cls][n][s] for s in range(n))
        if placed != problem.staged[cls][n]:
            hit("(14)", f"class {cls}: {placed} of {problem.staged[cls][n]} "
                        "pending deployments placed")

    if negative:
        # aggregate-based checks are meaningless on corrupt counts
        return ValidationResult(tuple(breaches))

    o, m, d, h = model.plan_aggregates(plan, n)
    servers = problem.state.servers
    mu0 = problem.state.initial_active

    # (15) migrations only out of initially-active servers
    for s in range(n):
        if mu0[s]:
            continue
        out = sum(o[cls][s] for cls in classes)
        if out > 0:
            hit("(15)", f"{servers[s].id} sends migrations while initially off")

    # (17) hosting requires power; (16) powered optional servers host something
    for s in range(n):
        hosted = sum(h[cls][s] for cls in classes)
        if plan.mu[s] == 0 and hosted > 0:
            hit("(17)", f"{servers[s].id} hosts {hosted} xApps while off")
        if plan.mu[s] == 1 and servers[s].optional_flag and hosted == 0:
            hit("(16)", f"optional {servers[s].id} is on but hosts nothing")

    # (19) mandatory servers stay on
    for s in range(n):
        if not servers[s].optional_flag and plan.mu[s] == 0:
            hit("(19)", f"mandatory {servers[s].id} turned off")

    # (18) capacity on the final hosting
    for s in range(n):
        if plan.mu[s] == 0:
            continue  # (17) already guards hosting on off servers
        out_s = sum(o[cls][s] for cls in classes)
        used_s = usage(problem, [h[cls][s] for cls in classes],
                       _resource_participates(problem, plan.mu[s], out_s))
        caps = (servers[s].cpu_cap, servers[s].mem_cap, servers[s].disk_cap)
        for used, cap, name in zip(used_s, caps, RESOURCES):
            if exceeds(used, cap):
                hit("(18)", f"{servers[s].id} {name} {used:.6g} over cap {cap:.6g}")

    params = problem.params

    # (20) downtime budget per source server, stateful strategies only
    if params.strategy in model.SM_STRATEGIES:
        for s in range(n):
            t_d = source_downtime(problem, [o[cls][s] for cls in classes])
            if exceeds(t_d, params.max_sm_downtime):
                hit("(20)", f"{servers[s].id} downtime {t_d:.6g} s over "
                            f"budget {params.max_sm_downtime:.6g} s")

    # (21) backend maintenance feasibility, backend strategy only
    if params.strategy is StrategyId.SDL:
        verdict = model.sdl_feasible(problem.totals, params, problem.cal)
        if not verdict.feasible:
            hit("(21)", f"defrag downtime {verdict.defrag_downtime:.6g} s "
                        f"(budget {params.max_defrag_downtime:.6g} s, "
                        f"active time {verdict.active_time:.6g} s)")

    # migration windows must fit in the slot
    for s in range(n):
        w = source_window(problem, [o[cls][s] for cls in classes],
                          [d[cls][s] for cls in classes])
        if exceeds(w, params.slot_length):
            hit("window", f"{servers[s].id} migration window {w:.6g} s exceeds "
                          f"slot {params.slot_length:.6g} s")

    return ValidationResult(tuple(breaches))


def drain_ok(problem: SalProblem, s: int) -> bool:
    """Whether server s may power off: moving every xApp it hosts keeps it
    within its downtime budget (20) and its migration window within the slot.

    Uses the same per-source sums as validate_plan; capacity at the
    destinations is left to the caller.
    """
    params = problem.params
    outgoing = [problem.staged[cls][s] for cls in problem.classes]
    if params.strategy in model.SM_STRATEGIES and exceeds(
            source_downtime(problem, outgoing), params.max_sm_downtime):
        return False
    return not exceeds(source_window(problem, outgoing, [0] * len(outgoing)),
                       params.slot_length)


# ---------------------------------------------------------------------------
# objective and annotation

def objective_eval(problem: SalProblem, plan: MigrationPlan) -> float:
    """Total slot energy of a plan, joules.  Does not re-validate."""
    return model.cluster_energy(plan, problem.state, problem.params,
                                problem.cal).total


def plan_kpis(problem: SalProblem, plan: MigrationPlan) -> KpiBundle:
    n = problem.n_servers
    params, cal = problem.params, problem.cal
    o, m, d, h = model.plan_aggregates(plan, n)
    rho = params.rho_mb
    strategy = params.strategy
    downtime, duration, inst = {}, {}, {}
    for cls in problem.classes:
        if strategy is StrategyId.SDL:
            downtime[cls] = tuple(model.sdl_downtime() for _ in range(n))
        else:
            downtime[cls] = tuple(
                model.sm_downtime(strategy, o[cls][s], cal, rho) for s in range(n)
            )
        duration[cls] = tuple(
            model.migration_duration(strategy, o[cls][s], cal, rho)
            for s in range(n)
        )
        inst[cls] = tuple(
            model.instantiation_time(d[cls][s], cal) for s in range(n)
        )
    if strategy is StrategyId.SDL:
        totals = problem.totals
        t_df = model.defrag_downtime(totals, cal, rho, params.maintenance_period)
        active = params.maintenance_period - t_df
    else:
        t_df = 0.0
        active = params.maintenance_period
    return KpiBundle(downtime=downtime, migration_duration=duration,
                     instantiation=inst, defrag_downtime=t_df, active_time=active)


def annotate_plan(problem: SalProblem, plan: MigrationPlan) -> MigrationPlan:
    """Fill in derived KPIs, energy breakdown, and activation ratio."""
    result = model.cluster_energy(plan, problem.state, problem.params, problem.cal)
    return replace(
        plan,
        kpi=plan_kpis(problem, plan),
        energy_total=result.total,
        energy_per_server=dict(result.per_server),
        activation_ratio=sum(plan.mu) / problem.n_servers,
    )


# ---------------------------------------------------------------------------
# assembling x from aggregated decisions

def lexmin_transport(outgoing, incoming):
    """Smallest (in flattened lexicographic order) migration matrix moving
    `outgoing[s]` units out of each server and `incoming[s]` units in, with
    no self-arcs.  Returns a square matrix with a zero diagonal.

    Such a matrix exists iff the counts are non-negative and balance and no
    server needs more than the others can trade with it, o[s] + m[s] <=
    sum(o): Hall's condition with one forbidden cell per row (Gale 1957).
    The cells are then fixed in row-major order, each at the least value
    that leaves the rest realizable; r and c are the row and column sums
    still to place and `total` their sum.  Two conditions bound a cell from
    below: row src must still fit into its later columns, and when dst >
    src, column dst can only be filled by the later rows other than row dst,
    which hold total - r[src] - r[dst].  Every other condition only caps
    the cell, and a realizable state leaves some value, so the larger lower
    bound is the cell's value.
    """
    n = len(outgoing)
    total = sum(outgoing)
    if total != sum(incoming) or any(o < 0 or m < 0 or o + m > total
                                     for o, m in zip(outgoing, incoming)):
        raise ValueError("aggregated migration counts are unrealizable")
    r, c = list(outgoing), list(incoming)
    t = [[0] * n for _ in range(n)]
    for src in range(n):
        for dst in range(n):
            if dst == src:
                continue
            tail = sum(c[dst + 1:]) - (c[src] if src > dst else 0)
            v = max(0, r[src] - tail)
            if dst > src:
                v = max(v, r[src] + r[dst] + c[dst] - total)
            t[src][dst] = v
            r[src] -= v
            c[dst] -= v
            total -= v
    return t


def plan_from_aggregates(problem: SalProblem, mu, outgoing, incoming, deploys
                         ) -> MigrationPlan:
    """Build the canonical (lex-min) plan realizing aggregated decisions.

    outgoing/incoming/deploys map class -> per-server counts; staying is
    inferred from the initial counts.
    """
    n = problem.n_servers
    x = {}
    for cls in problem.classes:
        t = lexmin_transport(list(outgoing[cls]), list(incoming[cls]))
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        for s in range(n):
            for sp in range(n):
                rows[s][sp] = t[s][sp]
            rows[s][s] = problem.staged[cls][s] - outgoing[cls][s]
            if rows[s][s] < 0:
                raise ValueError(f"class {cls}: outgoing exceeds initial count")
            rows[n][s] = deploys[cls][s]
        x[cls] = rows
    return MigrationPlan(x=x, mu=tuple(mu))
