"""Best-fit-decreasing consolidation heuristic.

Keeps the cluster to its mandatory servers plus whatever optional servers
cannot legally drain, then packs everything else (drained xApps and pending
deployments) onto the active set, heaviest energy class first, tightest
fitting server first.  Opens additional optional servers only when an item
fails to fit anywhere.  Fast and feasibility-oriented; gives no bound.
"""

from __future__ import annotations

import math
import time

from . import model
from .calibration import idle_coeff, load_coeff
from .model import StrategyId
from .problem import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    SalProblem,
    SolveReport,
    annotate_plan,
    drain_ok,
    plan_from_aggregates,
    validate_plan,
)

_RES = ("CPU", "MEM", "DISK")


def _heuristic_report(t0, objective, status, detail=""):
    return SolveReport(
        status=status, objective=objective, lower_bound=-math.inf,
        mip_gap=math.inf, runtime=time.perf_counter() - t0, nodes_explored=0,
        detail=detail or "heuristic solution, no optimality bound",
    )


def solve_greedy(problem: SalProblem, limits=None):
    """A feasible consolidation plan, or an infeasibility report."""
    t0 = time.perf_counter()
    n = problem.n_servers
    classes = problem.classes
    params, cal = problem.params, problem.cal
    servers = problem.state.servers
    staged = problem.staged
    totals = problem.totals
    strategy = params.strategy
    sdl = strategy is StrategyId.SDL

    if sdl and not model.sdl_feasible(totals, params, cal).feasible:
        return None, _heuristic_report(
            t0, None, STATUS_INFEASIBLE, "(21) backend maintenance budget"
        )

    must_on = [s for s in range(n) if not servers[s].optional_flag or
               not drain_ok(problem, s)]

    if sdl:
        share = {r: model.strategy_overhead(strategy, r, totals, n, cal, True)
                 for r in _RES}
    else:
        share = {r: 0.0 for r in _RES}  # greedy sources all power off
    p = {r: {c: load_coeff(cal, c, r) for c in classes} for r in _RES}
    q = {r: idle_coeff(cal, r) for r in _RES}
    caps = {s: (servers[s].cpu_cap, servers[s].mem_cap, servers[s].disk_cap)
            for s in range(n)}
    order = sorted(classes, key=lambda c: -load_coeff(cal, c, "E"))

    def try_pack(active):
        """Place drained xApps and deployments; None if something won't fit."""
        active = sorted(active)
        closing = [s for s in range(n) if s not in active]
        hosted = {cls: [staged[cls][s] if s in active else 0 for s in range(n)]
                  for cls in classes}
        arrivals = {cls: [0] * n for cls in classes}
        deploys = {cls: [0] * n for cls in classes}

        def usage(s):
            u = []
            for i, r in enumerate(_RES):
                v = q[r] + share[r]
                for cls in classes:
                    v += p[r][cls] * (hosted[cls][s] + arrivals[cls][s]
                                      + deploys[cls][s])
                u.append(v)
            return u

        def fits(s, cls):
            u = usage(s)
            for i, r in enumerate(_RES):
                if u[i] + p[r][cls] > caps[s][i] * (1 + 1e-9):
                    return False
            return True

        def best_fit(cls):
            # tightest CPU headroom that still fits, lowest index on ties
            pick, pick_room = None, None
            for s in active:
                if not fits(s, cls):
                    continue
                room = caps[s][0] - usage(s)[0]
                if pick is None or room < pick_room - 1e-12:
                    pick, pick_room = s, room
            return pick

        for cls in order:
            migrated = sum(staged[cls][s] for s in closing)
            for _ in range(migrated):
                s = best_fit(cls)
                if s is None:
                    return None
                arrivals[cls][s] += 1
            for _ in range(staged[cls][n]):
                s = best_fit(cls)
                if s is None:
                    return None
                deploys[cls][s] += 1

        # instantiation windows must fit the slot
        for s in active:
            w = sum(model.instantiation_time(deploys[cls][s], cal)
                    for cls in classes)
            if w > params.slot_length * (1 + 1e-9):
                return None
        return arrivals, deploys

    active = list(must_on)
    packed = None
    while True:
        packed = try_pack(active)
        if packed is not None:
            break
        closed = [s for s in range(n) if s not in active]
        if not closed:
            return None, _heuristic_report(
                t0, None, STATUS_INFEASIBLE,
                "(18) demand exceeds active capacity even with all servers on",
            )
        active.append(closed[0])

    arrivals, deploys = packed
    active = sorted(active)
    # drop optional servers we opened but never used
    keep = []
    for s in active:
        hosted_total = sum(staged[cls][s] + arrivals[cls][s] + deploys[cls][s]
                           for cls in classes)
        if servers[s].optional_flag and hosted_total == 0:
            continue
        keep.append(s)
    active = keep

    mu = tuple(1 if s in active else 0 for s in range(n))
    outgoing = {
        cls: [0 if mu[s] else staged[cls][s] for s in range(n)]
        for cls in classes
    }
    plan = plan_from_aggregates(problem, mu, outgoing, arrivals, deploys)
    check = validate_plan(problem, plan)
    if not check.valid:
        # fall back to the no-consolidation plan before giving up
        all_on = tuple(1 for _ in range(n))
        no_moves = {cls: [0] * n for cls in classes}
        fallback = None
        repack = try_pack(list(range(n)))
        if repack is not None:
            arr2, dep2 = repack
            fallback = plan_from_aggregates(problem, all_on, no_moves,
                                            arr2, dep2)
            if not validate_plan(problem, fallback).valid:
                fallback = None
        if fallback is None:
            return None, _heuristic_report(
                t0, None, STATUS_INFEASIBLE,
                f"no feasible heuristic plan ({', '.join(check.violations)})",
            )
        plan = fallback
    plan = annotate_plan(problem, plan)
    return plan, _heuristic_report(t0, plan.energy_total, STATUS_GAP)
