"""Exact consolidation solver: depth-first branch and bound over aggregates.

The search works on per-(class, server) aggregate counts (outgoing, incoming,
deployed) plus the activation vector, not on the full origin/destination
tensor; a lex-minimal transport reconstruction expands any realizable
aggregate into a concrete plan.  Lower bounds come from an LP relaxation
(HiGHS via scipy) with McCormick envelopes around the window-times-power
bilinear term.  Incumbents are only ever accepted after exact re-evaluation
through the energy model and the full plan validator, so the reported
objective is always a true, feasible plan energy.

A node is a box given by one bound vector pair `lo`, `hi` over
(o | m | d | mu): the first A = 3*K*S entries are the aggregate LP columns in
LP order (outgoing, incoming, deployed; class-major, then server), the last S
the activations.  The LP's aggregate column bounds are `lo[:A]`, `hi[:A]`;
an integral LP point and an enumerated box point split back into
(mu, outgoing, incoming, deploys) the same way.

Branching is deterministic: activation variables first (lowest index, the
off-child explored first, with full-drain propagation), then the first open
aggregate whose LP value is fractional, else the first open one, splitting
its bounds at the LP value.  Once every activation is fixed, boxes of at most
_ENUM_CAP points are enumerated outright.  Runs are sequential and
reproducible.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from scipy.optimize import linprog

from . import model
from .greedy import solve_greedy
from .model import RESOURCES, StrategyId, allowance, exceeds
from .problem import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME,
    SalProblem,
    SolveLimits,
    SolveReport,
    annotate_plan,
    drain_ok,
    mip_gap,
    objective_eval,
    plan_from_aggregates,
    source_window,
    validate_plan,
)

_INT_TOL = 1e-6
_ENUM_CAP = 256


class _Node:
    """A box of the search space plus the best bound proven for it.

    `lo` and `hi` bound the vector (o | m | d | mu): its first 3*K*S entries
    are the aggregate LP columns in LP order, the last S the activations.
    """

    __slots__ = ("bound", "lo", "hi")

    def __init__(self, bound, lo, hi):
        self.bound = bound
        self.lo = lo
        self.hi = hi

    def child(self):
        return _Node(self.bound, list(self.lo), list(self.hi))


def _context(problem: SalProblem):
    """Constant data shared by every node of one solve."""
    state, params = problem.state, problem.params
    co = problem.coeffs
    classes = problem.classes
    K, S = len(classes), problem.n_servers
    sdl = params.strategy is StrategyId.SDL

    n0 = [[problem.staged[cls][s] for s in range(S)] for cls in classes]
    pend = [problem.staged[cls][S] for cls in classes]
    pool = [sum(row) for row in n0]
    n_tot = [pool[k] + pend[k] for k in range(K)]

    p_e, q_e = co.loads["E"], co.idle["E"]
    caps = [(srv.cpu_cap, srv.mem_cap, srv.disk_cap) for srv in state.servers]
    # the engine's CPU overhead is left to exact checks
    share = co.overhead if sdl else dict.fromkeys(RESOURCES, 0.0)
    init_power = [q_e + sum(p_e[k] * n0[k][s] for k in range(K))
                  for s in range(S)]

    use_tm = co.kpi["b_m"] > 0 and any(pool)
    use_ti = co.inst["b_m"] > 0 and any(pend)

    nv = 3 * K * S + 4 * S
    base_tm = nv
    if use_tm:
        nv += K * S
    base_ti = nv
    if use_ti:
        nv += K * S

    return {
        "problem": problem, "co": co, "classes": classes, "K": K, "S": S,
        "sdl": sdl, "params": params, "n0": n0, "pend": pend, "pool": pool,
        "n_tot": n_tot, "caps": caps, "share": share,
        "e_tau_o": co.engine_power * co.kpi["delta_m"],
        "init_power": init_power,
        "use_tm": use_tm, "use_ti": use_ti, "nvar": nv, "A": 3 * K * S,
        "base_tm": base_tm, "base_ti": base_ti,
        "i_o": lambda k, s: k * S + s,
        "i_m": lambda k, s: K * S + k * S + s,
        "i_d": lambda k, s: 2 * K * S + k * S + s,
        "i_w": lambda s: 3 * K * S + s,
        "i_p": lambda s: 3 * K * S + S + s,
        "i_z": lambda s: 3 * K * S + 2 * S + s,
        "i_mu": lambda s: 3 * K * S + 3 * S + s,
    }


def _root_node(ctx):
    K, S = ctx["K"], ctx["S"]
    servers = ctx["problem"].state.servers
    lo = [0] * ctx["A"] + [0 if srv.optional_flag else 1 for srv in servers]
    hi = ([ctx["n0"][k][s] for k in range(K) for s in range(S)]
          + [ctx["pool"][k] for k in range(K) for s in range(S)]
          + [ctx["pend"][k] for k in range(K) for s in range(S)] + [1] * S)
    return _Node(-math.inf, lo, hi)


def _solve_lp(ctx, node):
    """LP relaxation of the node; (value, x) or (None, None) if infeasible."""
    K, S = ctx["K"], ctx["S"]
    nv = ctx["nvar"]
    i_o, i_m, i_d = ctx["i_o"], ctx["i_m"], ctx["i_d"]
    i_w, i_p, i_z, i_mu = ctx["i_w"], ctx["i_p"], ctx["i_z"], ctx["i_mu"]
    n0, pend, pool, n_tot = ctx["n0"], ctx["pend"], ctx["pool"], ctx["n_tot"]
    co, problem, params = ctx["co"], ctx["problem"], ctx["params"]
    p_e, q_e = co.loads["E"], co.idle["E"]
    slot = params.slot_length
    servers = problem.state.servers

    A, KS = ctx["A"], K * S
    lo, hi = node.lo, node.hi
    bounds = list(zip(lo[:A], hi[:A])) + [None] * (nv - A)
    w_hi = [0.0] * S
    p_lo = [0.0] * S
    p_hi = [0.0] * S
    for s in range(S):
        # the lowest and highest window in the box, at its two corners
        if exceeds(source_window(problem, lo[s:KS:S], lo[2 * KS + s:A:S]),
                   slot):
            return None, None  # every point in the box blows the slot
        w_hi[s] = min(allowance(slot), source_window(problem, hi[s:KS:S],
                                                     hi[2 * KS + s:A:S]))
        p_lo[s] = q_e * lo[A + s]
        p_hi[s] = q_e * hi[A + s]
        for k in range(K):
            i = k * S + s
            h_lo = max(0, n0[k][s] - hi[i]) + lo[KS + i] + lo[2 * KS + i]
            h_hi = min(n0[k][s] - lo[i] + hi[KS + i] + hi[2 * KS + i],
                       n_tot[k])
            p_lo[s] += p_e[k] * h_lo
            p_hi[s] += p_e[k] * h_hi
        p_lo[s] = min(p_lo[s], p_hi[s])
        bounds[i_w(s)] = (0.0, w_hi[s])
        bounds[i_p(s)] = (p_lo[s], p_hi[s])
        bounds[i_z(s)] = (0.0, w_hi[s] * p_hi[s])
        bounds[i_mu(s)] = (lo[A + s], hi[A + s])
    if ctx["use_tm"]:
        for i in range(KS):
            bounds[ctx["base_tm"] + i] = (1 if lo[i] > 0 else 0,
                                          0 if hi[i] == 0 else 1)
    if ctx["use_ti"]:
        for i in range(KS):
            bounds[ctx["base_ti"] + i] = (1 if lo[2 * KS + i] > 0 else 0,
                                          0 if hi[2 * KS + i] == 0 else 1)

    c = np.zeros(nv)
    for s in range(S):
        c[i_w(s)] = ctx["init_power"][s]
        c[i_p(s)] = slot
        c[i_z(s)] = -1.0
        c[i_mu(s)] += co.backend_energy
    if ctx["e_tau_o"]:
        for k in range(K):
            for s in range(S):
                c[i_o(k, s)] += ctx["e_tau_o"]
    if ctx["use_tm"] and co.engine_power:
        for k in range(K):
            for s in range(S):
                c[ctx["base_tm"] + k * S + s] += co.engine_power * co.kpi["b_m"]

    a_eq, b_eq = [], []
    for k in range(K):
        row = np.zeros(nv)
        for s in range(S):
            row[i_o(k, s)] = 1.0
            row[i_m(k, s)] = -1.0
        a_eq.append(row)
        b_eq.append(0.0)
        row = np.zeros(nv)
        for s in range(S):
            row[i_d(k, s)] = 1.0
        a_eq.append(row)
        b_eq.append(float(pend[k]))
    dm, bm = co.kpi["delta_m"], co.kpi["b_m"]
    dt, bt = co.inst["delta_m"], co.inst["b_m"]
    for s in range(S):
        row = np.zeros(nv)
        row[i_w(s)] = 1.0
        for k in range(K):
            row[i_o(k, s)] = -dm
            row[i_d(k, s)] = -dt
            if ctx["use_tm"]:
                row[ctx["base_tm"] + k * S + s] = -bm
            if ctx["use_ti"]:
                row[ctx["base_ti"] + k * S + s] = -bt
        a_eq.append(row)
        b_eq.append(0.0)
        row = np.zeros(nv)
        row[i_p(s)] = 1.0
        row[i_mu(s)] = -q_e
        rhs = 0.0
        for k in range(K):
            row[i_o(k, s)] = p_e[k]
            row[i_m(k, s)] = -p_e[k]
            row[i_d(k, s)] = -p_e[k]
            rhs += p_e[k] * n0[k][s]
        a_eq.append(row)
        b_eq.append(rhs)

    a_ub, b_ub = [], []
    for k in range(K):
        for s in range(S):
            if ctx["use_tm"] and n0[k][s] > 0:
                row = np.zeros(nv)
                row[i_o(k, s)] = 1.0
                row[ctx["base_tm"] + k * S + s] = -float(n0[k][s])
                a_ub.append(row)
                b_ub.append(0.0)
            if ctx["use_ti"] and pend[k] > 0:
                row = np.zeros(nv)
                row[i_d(k, s)] = 1.0
                row[ctx["base_ti"] + k * S + s] = -float(pend[k])
                a_ub.append(row)
                b_ub.append(0.0)
            # hosting only on powered servers
            row = np.zeros(nv)
            row[i_o(k, s)] = -1.0
            row[i_m(k, s)] = 1.0
            row[i_d(k, s)] = 1.0
            row[i_mu(s)] = -float(n_tot[k])
            a_ub.append(row)
            b_ub.append(-float(n0[k][s]))
            # a migrating unit cannot land back on its own source
            if pool[k] > 0:
                row = np.zeros(nv)
                row[i_o(k, s)] = 1.0
                row[i_m(k, s)] = 1.0
                for s2 in range(S):
                    row[i_o(k, s2)] -= 1.0
                a_ub.append(row)
                b_ub.append(0.0)
    for s in range(S):
        if servers[s].optional_flag:
            row = np.zeros(nv)
            row[i_mu(s)] = 1.0
            rhs = 0.0
            for k in range(K):
                row[i_o(k, s)] += 1.0
                row[i_m(k, s)] -= 1.0
                row[i_d(k, s)] -= 1.0
                rhs += n0[k][s]
            a_ub.append(row)
            b_ub.append(rhs)
        for ri, r in enumerate(RESOURCES):
            row = np.zeros(nv)
            row[i_mu(s)] = co.idle[r] + ctx["share"][r] - ctx["caps"][s][ri]
            rhs = 0.0
            for k in range(K):
                p = co.loads[r][k]
                row[i_o(k, s)] -= p
                row[i_m(k, s)] += p
                row[i_d(k, s)] += p
                rhs -= p * n0[k][s]
            a_ub.append(row)
            b_ub.append(rhs)
        if not ctx["sdl"]:
            row = np.zeros(nv)
            for k in range(K):
                row[i_o(k, s)] = co.kpi["delta_d"]
            a_ub.append(row)
            b_ub.append(params.max_sm_downtime)
        # McCormick envelope for z = W * P
        wh, ph, pl = w_hi[s], p_hi[s], p_lo[s]
        row = np.zeros(nv)
        row[i_z(s)], row[i_p(s)], row[i_w(s)] = 1.0, -wh, -pl
        a_ub.append(row)
        b_ub.append(-wh * pl)
        row = np.zeros(nv)
        row[i_z(s)], row[i_w(s)] = 1.0, -ph
        a_ub.append(row)
        b_ub.append(0.0)
        row = np.zeros(nv)
        row[i_w(s)], row[i_z(s)] = pl, -1.0
        a_ub.append(row)
        b_ub.append(0.0)
        row = np.zeros(nv)
        row[i_p(s)], row[i_w(s)], row[i_z(s)] = wh, ph, -1.0
        a_ub.append(row)
        b_ub.append(wh * ph)

    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    if not res.success:
        return None, None
    return float(res.fun), res.x


def _try_candidate(ctx, mu, outgoing, incoming, deploys):
    """Exact evaluation of an aggregate assignment; (plan, energy) or None."""
    problem = ctx["problem"]
    classes = ctx["classes"]
    for k, cls in enumerate(classes):
        if sum(outgoing[cls]) != sum(incoming[cls]):
            return None
    try:
        plan = plan_from_aggregates(problem, mu, outgoing, incoming, deploys)
    except ValueError:
        return None
    if not validate_plan(problem, plan).valid:
        return None
    try:
        energy = objective_eval(problem, plan)
    except model.ModelDomainError:  # pragma: no cover - window checked already
        return None
    return plan, energy


def _split(ctx, vals):
    """(mu, outgoing, incoming, deploys) of a point of the node vector."""
    S, KS = ctx["S"], ctx["K"] * ctx["S"]

    def per_class(base):
        return {cls: vals[base + k * S:base + (k + 1) * S]
                for k, cls in enumerate(ctx["classes"])}

    return tuple(vals[3 * KS:]), per_class(0), per_class(KS), per_class(2 * KS)


def _extract_integral(ctx, x):
    """Round an integral LP point into aggregate dicts, or None."""
    mu0 = ctx["i_mu"](0)
    vals = []
    for v in itertools.chain(x[:ctx["A"]], x[mu0:mu0 + ctx["S"]]):
        r = round(v)
        if abs(v - r) > _INT_TOL:
            return None
        vals.append(int(r))
    return _split(ctx, vals)


def _box_points(ctx, node):
    """Iterate all integer aggregate points of a fully mu-fixed node."""
    A = ctx["A"]
    mu = node.lo[A:]
    ranges = [range(node.lo[i], node.hi[i] + 1) for i in range(A)]
    for point in itertools.product(*ranges):
        yield _split(ctx, list(point) + mu)


def solve_bnb(problem: SalProblem, limits: SolveLimits = None):
    """Globally minimal-energy plan, an optimality certificate, or a proof of
    infeasibility, subject to the time and gap limits."""
    limits = limits or SolveLimits()
    t0 = time.perf_counter()
    trace = []

    params, cal = problem.params, problem.cal
    if params.strategy is StrategyId.SDL:
        feas = model.sdl_feasible(problem.totals, params, cal)
        if not feas.feasible:
            return None, SolveReport(
                status=STATUS_INFEASIBLE, objective=None,
                lower_bound=math.inf, mip_gap=math.inf,
                runtime=time.perf_counter() - t0, nodes_explored=0,
                detail="(21) backend maintenance budget", trace=(),
            )

    ctx = _context(problem)
    K, S, A = ctx["K"], ctx["S"], ctx["A"]
    slack = lambda inc: 1e-9 * max(1.0, abs(inc))

    incumbent, inc_obj = None, math.inf
    seed, _ = solve_greedy(problem)
    if seed is not None:
        incumbent, inc_obj = seed, seed.energy_total
        trace.append(("incumbent", time.perf_counter() - t0, inc_obj))

    root = _root_node(ctx)
    lp_val, lp_x = _solve_lp(ctx, root)
    nodes = 0
    if lp_val is None:
        status = STATUS_INFEASIBLE if incumbent is None else STATUS_OPTIMAL
        obj = None if incumbent is None else inc_obj
        lb = math.inf if incumbent is None else inc_obj
        detail = ("no feasible assignment; check capacity (18) and downtime "
                  "(20) budgets") if incumbent is None else ""
        if incumbent is not None:
            incumbent = annotate_plan(problem, incumbent)
        return incumbent, SolveReport(
            status=status, objective=obj, lower_bound=lb,
            mip_gap=mip_gap(obj, lb), runtime=time.perf_counter() - t0,
            nodes_explored=1, detail=detail, trace=tuple(trace),
        )
    root.bound = lp_val
    trace.append(("bound", time.perf_counter() - t0, lp_val))

    stack = [(root, lp_val, lp_x)]

    def open_lb(extra=None):
        """Certified floor: min bound over open boxes plus the incumbent."""
        vals = [n.bound for n, _, _ in stack]
        if extra is not None:
            vals.append(extra)
        if incumbent is not None:
            vals.append(inc_obj)
        return min(vals) if vals else math.inf

    def finalize(status, detail="", lb=None):
        plan = incumbent
        if plan is not None:
            plan = annotate_plan(problem, plan)
        obj = None if plan is None else inc_obj
        if status == STATUS_OPTIMAL:
            lb = obj
        elif lb is None:
            lb = open_lb()
        trace.append(("bound", time.perf_counter() - t0, lb))
        return plan, SolveReport(
            status=status, objective=obj, lower_bound=lb,
            mip_gap=mip_gap(obj, lb), runtime=time.perf_counter() - t0,
            nodes_explored=nodes, detail=detail, trace=tuple(trace),
        )

    while stack:
        if time.perf_counter() - t0 > limits.time_limit:
            return finalize(STATUS_TIME, "time limit reached")
        node, node_lp, node_x = stack.pop()
        nodes += 1
        if node.bound >= inc_obj - slack(inc_obj):
            continue
        if node_lp is None:
            node_lp, node_x = _solve_lp(ctx, node)
            if node_lp is None:
                continue
            node.bound = max(node.bound, node_lp)
            if node.bound >= inc_obj - slack(inc_obj):
                continue

        if nodes % 64 == 0:
            glb = open_lb(node.bound)
            trace.append(("bound", time.perf_counter() - t0, glb))
            if incumbent is not None and limits.gap_target > 0 and \
                    mip_gap(inc_obj, glb) <= limits.gap_target:
                return finalize(STATUS_GAP, "gap target reached", lb=glb)

        cand = _extract_integral(ctx, node_x)
        if cand is not None:
            hit = _try_candidate(ctx, *cand)
            if hit is not None and hit[1] < inc_obj - slack(inc_obj):
                incumbent, inc_obj = hit
                trace.append(("incumbent", time.perf_counter() - t0, inc_obj))
                if node.bound >= inc_obj - slack(inc_obj):
                    continue

        lo, hi = node.lo, node.hi
        # activation branching first; the on-child is explored second
        s = next((s for s in range(S) if lo[A + s] < hi[A + s]), None)
        if s is not None:
            on = node.child()
            on.lo[A + s] = 1
            stack.append((on, None, None))
            if drain_ok(problem, s):
                off = node.child()
                off.hi[A + s] = 0
                for k in range(K):
                    i = k * S + s
                    for j, v in ((i, ctx["n0"][k][s]), (K * S + i, 0),
                                 (2 * K * S + i, 0)):
                        off.lo[j] = off.hi[j] = v
                stack.append((off, None, None))
            continue

        if math.prod(hi[i] - lo[i] + 1 for i in range(A)) <= _ENUM_CAP:
            for point in _box_points(ctx, node):
                hit = _try_candidate(ctx, *point)
                if hit is not None and hit[1] < inc_obj - slack(inc_obj):
                    incumbent, inc_obj = hit
                    trace.append(("incumbent", time.perf_counter() - t0,
                                  inc_obj))
            continue

        # first fractional open aggregate, else the first open one
        open_cols = [i for i in range(A) if lo[i] < hi[i]]
        i = next((i for i in open_cols
                  if abs(node_x[i] - round(node_x[i])) > _INT_TOL),
                 open_cols[0])
        pivot = min(max(int(math.floor(node_x[i])), lo[i]), hi[i] - 1)
        low, high = node.child(), node.child()
        low.hi[i] = pivot
        high.lo[i] = pivot + 1
        stack.append((high, None, None))
        stack.append((low, None, None))

    if incumbent is None:
        return finalize(STATUS_INFEASIBLE,
                        "no feasible assignment; check capacity (18) and "
                        "downtime (20) budgets")
    return finalize(STATUS_OPTIMAL)
