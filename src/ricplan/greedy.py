"""Best-fit-decreasing consolidation heuristic.

Keeps the cluster to its mandatory servers plus whatever optional servers
cannot legally drain, then packs everything else (drained xApps and pending
deployments) onto the active set, heaviest energy class first, tightest
fitting server first.  Opens additional optional servers only when an item
fails to fit anywhere.  Fast and feasibility-oriented; gives no bound.
It proves infeasibility only by the (21) backend budget; a plan it cannot
build is reported as "no_plan", since another plan may exist.
"""

from __future__ import annotations

import math
import time

from . import model
from .model import StrategyId, exceeds
from .problem import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_NO_PLAN,
    SalProblem,
    SolveReport,
    annotate_plan,
    drain_ok,
    plan_from_aggregates,
    source_window,
    usage,
    validate_plan,
)


def _heuristic_report(t0, objective, status, detail=""):
    return SolveReport(
        status=status, objective=objective, lower_bound=-math.inf,
        runtime=time.perf_counter() - t0, nodes_explored=0,
        detail=detail or "heuristic solution, no optimality bound",
    )


def solve_greedy(problem: SalProblem, limits=None):
    """A feasible consolidation plan, or a report of why there is none."""
    t0 = time.perf_counter()
    n = problem.n_servers
    classes = problem.classes
    params, cal = problem.params, problem.cal
    servers = problem.state.servers
    staged = problem.staged
    sdl = params.strategy is StrategyId.SDL

    if sdl and not model.sdl_feasible(problem.totals, params, cal).feasible:
        return None, _heuristic_report(
            t0, None, STATUS_INFEASIBLE, "(21) backend maintenance budget"
        )

    must_on = [s for s in range(n) if not servers[s].optional_flag or
               not drain_ok(problem, s)]

    caps = [(srv.cpu_cap, srv.mem_cap, srv.disk_cap) for srv in servers]
    load_e = problem.coeffs.loads["E"]
    order = sorted(range(len(classes)), key=lambda k: -load_e[k])

    def try_pack(active):
        """Place drained xApps and deployments; None if something won't fit.

        Sources all power off, so only the backend strategy charges the
        active servers its overhead.
        """
        active = sorted(active)
        closing = [s for s in range(n) if s not in active]
        hosting = {s: [staged[cls][s] for cls in classes] for s in active}
        arrivals = {cls: [0] * n for cls in classes}
        deploys = {cls: [0] * n for cls in classes}

        def best_fit(k):
            # tightest CPU headroom that still fits, lowest index on ties
            pick, pick_room = None, None
            for s in active:
                final = hosting[s]
                room = caps[s][0] - usage(problem, final, sdl)[0]
                final[k] += 1
                over = any(map(exceeds, usage(problem, final, sdl), caps[s]))
                final[k] -= 1
                if over:
                    continue
                if pick is None or room < pick_room - 1e-12:
                    pick, pick_room = s, room
            if pick is not None:
                hosting[pick][k] += 1
            return pick

        for k in order:
            cls = classes[k]
            migrated = sum(staged[cls][s] for s in closing)
            for _ in range(migrated):
                s = best_fit(k)
                if s is None:
                    return None
                arrivals[cls][s] += 1
            for _ in range(staged[cls][n]):
                s = best_fit(k)
                if s is None:
                    return None
                deploys[cls][s] += 1

        # instantiation windows must fit the slot
        no_moves = [0] * len(classes)
        for s in active:
            w = source_window(problem, no_moves,
                              [deploys[cls][s] for cls in classes])
            if exceeds(w, params.slot_length):
                return None
        return arrivals, deploys

    active = list(must_on)
    while True:
        packed = try_pack(active)
        if packed is not None:
            break
        closed = [s for s in range(n) if s not in active]
        if not closed:
            return None, _heuristic_report(
                t0, None, STATUS_NO_PLAN,
                "(18) demand exceeds active capacity even with all servers on",
            )
        active.append(closed[0])

    arrivals, deploys = packed
    # drop optional servers we opened but never used
    active = [s for s in active if not servers[s].optional_flag or any(
        staged[cls][s] + arrivals[cls][s] + deploys[cls][s] for cls in classes)]

    mu = tuple(1 if s in active else 0 for s in range(n))
    outgoing = {
        cls: [0 if mu[s] else staged[cls][s] for s in range(n)]
        for cls in classes
    }
    plan = plan_from_aggregates(problem, mu, outgoing, arrivals, deploys)
    check = validate_plan(problem, plan)
    if not check.valid:
        return None, _heuristic_report(
            t0, None, STATUS_NO_PLAN,
            f"no feasible heuristic plan ({', '.join(check.violations)})",
        )
    plan = annotate_plan(problem, plan)
    return plan, _heuristic_report(t0, plan.energy_total, STATUS_GAP)
