"""Exhaustive reference solver.

Enumerates every activation vector and every per-row destination split, and
judges each complete assignment through the reference path only:
`validate_plan` for feasibility and `objective_eval` for energy.  It keeps no
model or constraint arithmetic of its own, so it stays independent of the
fast paths the other solvers take.  Intended as the ground-truth oracle at
desk scale; refuses instances whose search-space estimate exceeds the
evaluation cap.

Every split fixes every row sum, so a candidate's validity and energy depend
only on its aggregate (mu, per-class outgoing/incoming/deployed counts per
server).  Each aggregate is judged once, at its first split in enumeration
order; a later split with the same aggregate has the same energy and cannot
win a strict comparison, so the memo changes neither the result nor the
count of evaluated splits.
"""

from __future__ import annotations

import math
import time
from itertools import product

from .problem import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    MigrationPlan,
    SalProblem,
    SolveLimits,
    SolveReport,
    annotate_plan,
    drain_ok,
    identity_plan,
    objective_eval,
    validate_plan,
)

EVAL_CAP = 10_000_000  # the largest search-space estimate solved


class SearchSpaceError(ValueError):
    """Instance too large for exhaustive search; carries the estimate."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(
            f"estimated {estimate} plan evaluations exceed the cap of {cap}"
        )
        self.estimate = estimate
        self.cap = cap


def _compositions(total: int, slots: int):
    """All ways to split `total` over `slots` ordered bins, ascending lex."""
    if slots == 0:
        return [()] if total == 0 else []
    if slots == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out


def search_space_estimate(problem: SalProblem) -> int:
    n = problem.n_servers
    est = 2 ** sum(1 for srv in problem.state.servers if srv.optional_flag)
    for cls in problem.classes:
        for count in problem.staged[cls]:
            est *= math.comb(count + n - 1, n - 1)
    return est


def solve_bruteforce(problem: SalProblem, limits: SolveLimits = None):
    """Globally optimal plan by enumeration, or an infeasibility report.

    Ties on the objective resolve to the first candidate in enumeration
    order, which is the lexicographically smallest (mu, flattened x).  The
    search runs to its end: `limits` is taken for the solvers' common
    signature only, and an estimate over EVAL_CAP is refused up front.
    """
    t0 = time.perf_counter()

    n = problem.n_servers
    classes = problem.classes
    staged = problem.staged

    def report(status, objective, nodes, detail=""):
        lb = objective if objective is not None else math.inf
        return SolveReport(
            status=status, objective=objective, lower_bound=lb,
            runtime=time.perf_counter() - t0,
            nodes_explored=nodes, detail=detail,
        )

    # backend infeasibility (21) depends on the population alone, so every
    # candidate shares the identity plan's verdict; check before refusing on
    # size
    if "(21)" in validate_plan(problem, identity_plan(problem)).violations:
        return None, report(STATUS_INFEASIBLE, None, 0, "(21)")

    est = search_space_estimate(problem)
    if est > EVAL_CAP:
        raise SearchSpaceError(est, EVAL_CAP)

    rows = [(cls, src) for cls in classes for src in range(n + 1)]
    mu_axes = [[1] if not srv.optional_flag else [0, 1]
               for srv in problem.state.servers]
    drainable = [drain_ok(problem, s) for s in range(n)]
    comp_cache = {}
    judged = set()  # aggregates already judged

    best_obj = None
    best_plan = None
    evaluated = 0

    for mu in product(*mu_axes):
        active = [s for s in range(n) if mu[s]]
        if not active:
            continue  # at least one mandatory server exists
        # a server that powers off must drain completely; validate_plan would
        # reject every split of such a mu, so skip them without counting
        if not all(mu[s] or drainable[s] for s in range(n)):
            continue

        # destination splits per row, restricted to active servers
        per_row = []
        feasible_mu = True
        for cls, src in rows:
            count = staged[cls][src]
            key = (count, len(active))
            if key not in comp_cache:
                comp_cache[key] = _compositions(count, len(active))
            if count > 0 and not comp_cache[key]:
                feasible_mu = False
                break
            per_row.append(comp_cache[key])
        if not feasible_mu:
            continue

        for combo in product(*per_row):
            evaluated += 1
            out = {cls: [0] * n for cls in classes}
            arr = {cls: [0] * n for cls in classes}
            dep = {cls: [0] * n for cls in classes}
            for (cls, src), split in zip(rows, combo):
                for pos, v in enumerate(split):
                    dst = active[pos]
                    if src == n:
                        dep[cls][dst] += v
                    elif dst != src:
                        out[cls][src] += v
                        arr[cls][dst] += v
            aggregate = (mu,) + tuple(
                tuple(out[cls] + arr[cls] + dep[cls]) for cls in classes)
            if aggregate in judged:
                continue
            judged.add(aggregate)

            x = {cls: [[0] * (n + 1) for _ in range(n + 1)] for cls in classes}
            for (cls, src), split in zip(rows, combo):
                for pos, v in enumerate(split):
                    x[cls][src][active[pos]] = v
            plan = MigrationPlan(x=x, mu=mu)
            if not validate_plan(problem, plan).valid:
                continue
            energy = objective_eval(problem, plan)
            if best_obj is None or energy < best_obj:
                best_obj = energy
                best_plan = plan

    if best_plan is None:
        return None, report(STATUS_INFEASIBLE, None, evaluated,
                            "no feasible assignment in the full search space")
    plan = annotate_plan(problem, best_plan)
    return plan, report(STATUS_OPTIMAL, plan.energy_total, evaluated)
