"""Timeslot lifecycle around the solver: apply workload changes, pick a
plan, score it against the keep-everything-on baseline, advance the state.

Also hosts the two parameter sweeps behind `ricplan feasibility` and
`ricplan sweep`: a feasibility grid (how many xApps each strategy
configuration can carry) and an energy grid (realized savings and activation
ratios across populations).
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from . import model
from .bnb import solve_bnb
from .bruteforce import solve_bruteforce
from .calibration import CalibrationLookupError, CalibrationSet
from .greedy import solve_greedy
from .model import (
    ClusterState,
    ScenarioParams,
    ServerSpec,
    StrategyId,
    XAppClass,
)
from .problem import (
    MigrationPlan,
    SolveLimits,
    SolveReport,
    annotate_plan,
    build_problem,
    plan_from_aggregates,
    source_window,
    usage,
)

SOLVERS = ("bnb", "bruteforce", "greedy")


class BaselineInfeasible(RuntimeError):
    """The do-nothing baseline itself cannot host the requested workload."""


@dataclass(frozen=True)
class SlotResult:
    """Outcome of one planning slot."""

    plan: Optional[MigrationPlan]
    report: SolveReport
    baseline_energy: Optional[float]
    energy_gain: Optional[float]
    activation_ratio: Optional[float]
    next_state: ClusterState
    baseline_feasible: bool


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition shared by the feasibility and energy sweeps.

    The workload mix gives `dominant_share` of the population to the
    dominant class and splits the rest evenly across the other classes,
    rounding by largest remainder so counts always sum exactly.
    """

    classes: Tuple[XAppClass, ...]
    dominant_class: str
    count_range: Tuple[int, ...]
    rho_list_mb: Tuple[float, ...]
    nu_list_s: Tuple[float, ...]
    strategies: Tuple[str, ...]
    dominant_share: float = 0.75

    def __post_init__(self):
        ids = [c.id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate xApp class ids in sweep spec")
        if self.dominant_class not in ids:
            raise ValueError(
                f"dominant class {self.dominant_class!r} not among classes"
            )
        if not 0.0 < self.dominant_share <= 1.0:
            raise ValueError("dominant_share must be in (0, 1]")
        if any(n < 0 for n in self.count_range):
            raise ValueError("count_range entries must be >= 0")
        for name in ("rho_list_mb", "nu_list_s"):
            if any(v <= 0 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be > 0")
        for st in self.strategies:
            StrategyId(st)


def mix_counts(spec: SweepSpec, total: int) -> Mapping[str, int]:
    """Per-class counts for a population of `total` under the sweep mix."""
    if total < 0:
        raise ValueError("total must be >= 0")
    ids = [c.id for c in spec.classes]
    others = [i for i in ids if i != spec.dominant_class]
    # shares must sum to 1: a lone class absorbs the whole population
    share = spec.dominant_share if others else 1.0
    quota = {spec.dominant_class: share * total}
    rest = (1.0 - share) / len(others) if others else 0.0
    for i in others:
        quota[i] = rest * total
    counts = {i: int(quota[i]) for i in ids}
    short = total - sum(counts.values())
    order = sorted(ids, key=lambda i: (-(quota[i] - counts[i]), ids.index(i)))
    for i in order[:short]:
        counts[i] += 1
    return counts


def balanced_state(classes: Sequence[XAppClass],
                   servers: Sequence[ServerSpec],
                   counts: Mapping[str, int]) -> ClusterState:
    """All servers on, each class spread as evenly as indices allow."""
    n = len(servers)
    initial = {}
    for cls in classes:
        c = counts.get(cls.id, 0)
        base, extra = divmod(c, n)
        initial[cls.id] = tuple(base + (1 if s < extra else 0)
                                for s in range(n))
    return ClusterState(
        servers=tuple(servers),
        initial_counts=initial,
        initial_active=tuple(1 for _ in range(n)),
    )


def apply_undeployments(state: ClusterState) -> ClusterState:
    """Remove the state's pending undeploys ahead of planning, most-loaded
    optional server first.

    Removal is unit by unit: the next xApp leaves an optional server before
    a mandatory one, the busiest first, ties by server id, which frees the
    servers a consolidation pass wants to shut down anyway.  Returns a state
    with the removals folded in and no pending undeploys.
    """
    counts = {cls: list(state.initial_counts[cls]) for cls in state.classes}
    servers = state.servers
    for cls in state.classes:
        # ClusterState holds each class's count, between 0 and its hosted count
        for _ in range(state.pending_undeploys[cls]):
            s = min((s for s, k in enumerate(counts[cls]) if k > 0),
                    key=lambda s: (not servers[s].optional_flag,
                                   -sum(row[s] for row in counts.values()),
                                   servers[s].id))
            counts[cls][s] -= 1
    return dataclasses.replace(
        state,
        initial_counts={cls: tuple(v) for cls, v in counts.items()},
        pending_undeploys={},
    )


def stage_deployments(state: ClusterState,
                      n_plus: Mapping[str, int]) -> ClusterState:
    """Replace (not accumulate) the pending deployment request."""
    return dataclasses.replace(state, pending_deploys=dict(n_plus))


def baseline_plan(state: ClusterState, params: ScenarioParams,
                  cal: CalibrationSet) -> MigrationPlan:
    """The do-nothing reference: every server on, nothing migrates, pending
    deployments land on the least CPU-utilized server one unit at a time.

    Raises BaselineInfeasible when even this cannot respect capacity or the
    instantiation window.
    """
    n = len(state.servers)
    classes = state.classes
    if any(state.pending_undeploys.get(c, 0) for c in classes):
        raise ValueError("apply undeployments before planning a baseline")
    problem = build_problem(state, params, cal)
    sdl = params.strategy is StrategyId.SDL
    hosting = [[state.initial_counts[cls][s] for cls in classes]
               for s in range(n)]
    new = {cls: [0] * n for cls in classes}
    caps = [(srv.cpu_cap, srv.mem_cap, srv.disk_cap) for srv in state.servers]

    for k, cls in enumerate(classes):
        for _ in range(state.pending_deploys.get(cls, 0)):
            best, best_util = None, None
            for s in range(n):
                hosting[s][k] += 1
                used = usage(problem, hosting[s], sdl)
                hosting[s][k] -= 1
                if any(map(model.exceeds, used, caps[s])):
                    continue
                util = used[0] / caps[s][0]
                if best is None or util < best_util - 1e-12:
                    best, best_util = s, util
            if best is None:
                raise BaselineInfeasible(
                    f"no server can host another {cls!r} xApp"
                )
            hosting[best][k] += 1
            new[cls][best] += 1

    no_moves = [0] * len(classes)
    for s in range(n):
        window = source_window(problem, no_moves,
                               [new[cls][s] for cls in classes])
        if model.exceeds(window, params.slot_length):
            raise BaselineInfeasible(
                f"instantiation window on server {state.servers[s].id!r} "
                f"exceeds the slot"
            )

    still = {cls: [0] * n for cls in classes}
    return plan_from_aggregates(problem, (1,) * n, still, still, new)


def baseline_energy(state: ClusterState, params: ScenarioParams,
                    cal: CalibrationSet) -> float:
    """Slot energy of the do-nothing baseline (not validated against the
    empty-active-server rule; an idle server that stays on is the point)."""
    plan = baseline_plan(state, params, cal)
    return model.cluster_energy(plan, state, params, cal).total


def _advance_state(state: ClusterState, plan: MigrationPlan) -> ClusterState:
    *_, hosted = model.plan_aggregates(plan, len(state.servers))
    return ClusterState(
        servers=state.servers,
        initial_counts={cls: hosted[cls] for cls in state.classes},
        initial_active=plan.mu,
        pending_deploys={},
        pending_undeploys={},
    )


def run_timeslot(state: ClusterState, params: ScenarioParams,
                 cal: CalibrationSet, solver: str = "bnb",
                 limits: SolveLimits = None) -> SlotResult:
    """Plan one slot end to end and report the energy saved.

    Undeployments are applied first, then the chosen solver runs on the
    staged problem.  An infeasible slot leaves the state where it was
    (deployments stay pending).
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if any(state.pending_undeploys.get(c, 0) for c in state.classes):
        state = apply_undeployments(state)
    problem = build_problem(state, params, cal)

    try:
        base = baseline_energy(state, params, cal)
        base_ok = True
    except BaselineInfeasible:
        base, base_ok = None, False

    fn = {"bnb": solve_bnb, "bruteforce": solve_bruteforce,
          "greedy": solve_greedy}[solver]
    plan, report = fn(problem, limits or SolveLimits())

    if plan is None:
        return SlotResult(
            plan=None, report=report, baseline_energy=base, energy_gain=None,
            activation_ratio=None, next_state=state, baseline_feasible=base_ok,
        )
    if plan.energy_total is None:
        plan = annotate_plan(problem, plan)
    gain = None
    if base_ok and base > 0:
        gain = 1.0 - plan.energy_total / base
    return SlotResult(
        plan=plan, report=report, baseline_energy=base, energy_gain=gain,
        activation_ratio=plan.activation_ratio,
        next_state=_advance_state(state, plan),
        baseline_feasible=base_ok,
    )


def _sweep_params(template: ScenarioParams, strategy: str, rho_mb: float,
                  nu_s: float) -> ScenarioParams:
    return dataclasses.replace(
        template, strategy=StrategyId(strategy), state_size=rho_mb * 1e6,
        maintenance_period=nu_s,
    )


def _row(strategy, cls_id, rho, nu, n_total, feasible, gain=None, ratio=None,
         gap=None, runtime=None):
    return {
        "strategy": strategy, "class": cls_id, "rho_mb": rho, "nu_s": nu,
        "n_total": n_total, "feasible": feasible, "energy_gain": gain,
        "activation_ratio": ratio, "mip_gap": gap, "runtime_s": runtime,
    }


def _grid(spec: SweepSpec, params_template: ScenarioParams):
    """Every point of the sweep grid in CSV order, as (point, params,
    counts): `point` holds the leading fields of its `_row`."""
    for strategy, rho, nu in itertools.product(
            spec.strategies, spec.rho_list_mb, spec.nu_list_s):
        params = _sweep_params(params_template, strategy, rho, nu)
        for n_total in spec.count_range:
            yield ((strategy, spec.dominant_class, rho, nu, n_total), params,
                   mix_counts(spec, n_total))


def _uncalibrated(point, exc: CalibrationLookupError, noted: set):
    """The blank row of a grid point without calibration; its note goes to
    stderr unless `noted`, the notes of this sweep so far, holds it."""
    strategy, _, rho, nu, _ = point
    note = (f"note: no calibration for {strategy} at rho={rho} MB, nu={nu} s "
            f"({exc}); skipping")
    if note not in noted:
        noted.add(note)
        print(note, file=sys.stderr)
    return _row(*point, None)


def feasibility_sweep(spec: SweepSpec, params_template: ScenarioParams,
                      cal: CalibrationSet):
    """How many xApps each (strategy, state size, period) can carry.

    Backend rows check the maintenance budget against the mixed population;
    stateful rows check that a single source holding the whole population
    could still drain within the downtime budget.  Configurations without
    calibration coverage produce a blank row and a note on stderr.

    Returns (rows, summary) where summary maps (strategy, rho_mb, nu_s) to
    the largest feasible population, or None.
    """
    rows, noted = [], set()
    summary = dict.fromkeys(itertools.product(
        spec.strategies, spec.rho_list_mb, spec.nu_list_s))
    for point, params, counts in _grid(spec, params_template):
        strategy, _, rho, nu, n_total = point
        sid = StrategyId(strategy)
        try:
            if sid is StrategyId.SDL:
                ok = model.sdl_feasible(counts, params, cal).feasible
            else:
                t_d = model.sm_downtime(sid, n_total, cal, rho)
                ok = not model.exceeds(t_d, params.max_sm_downtime)
        except CalibrationLookupError as exc:
            rows.append(_uncalibrated(point, exc, noted))
            continue
        rows.append(_row(*point, ok))
        best = summary[strategy, rho, nu]
        if ok and (best is None or n_total > best):
            summary[strategy, rho, nu] = n_total
    return rows, summary


def energy_sweep(spec: SweepSpec, servers: Sequence[ServerSpec],
                 params_template: ScenarioParams, cal: CalibrationSet,
                 solver: str = "bnb", limits: SolveLimits = None):
    """Realized savings across the grid, starting from a balanced cluster."""
    rows, noted = [], set()
    for point, params, counts in _grid(spec, params_template):
        state = balanced_state(spec.classes, servers, counts)
        t0 = time.perf_counter()
        try:
            slot = run_timeslot(state, params, cal, solver, limits)
        except CalibrationLookupError as exc:
            rows.append(_uncalibrated(point, exc, noted))
            continue
        elapsed = time.perf_counter() - t0
        if slot.plan is None:
            rows.append(_row(*point, False, runtime=elapsed))
        else:
            rows.append(_row(*point, True, gain=slot.energy_gain,
                             ratio=slot.activation_ratio,
                             gap=slot.report.mip_gap, runtime=elapsed))
    return rows
