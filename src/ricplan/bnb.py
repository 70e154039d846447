"""Exact consolidation solver: depth-first branch and bound over aggregates.

The search works on per-(class, server) aggregate counts (outgoing, incoming,
deployed) plus the activation vector, not on the full origin/destination
tensor; a lex-minimal transport reconstruction expands any realizable
aggregate into a concrete plan.  Lower bounds come from an LP relaxation
(HiGHS via scipy) with McCormick envelopes around the window-times-power
bilinear term.  Incumbents are only ever accepted after exact re-evaluation
through the energy model and the full plan validator, so the reported
objective is always a true, feasible plan energy.

Branching is deterministic: activation variables first (lowest index, the
off-child explored first, with full-drain propagation), then the first
fractional aggregate, splitting its box at the LP value.  Small fully-fixed
boxes are enumerated outright.  Runs are sequential and reproducible.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from scipy.optimize import linprog

from . import model
from .greedy import solve_greedy
from .model import RESOURCES, StrategyId, exceeds
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
    """A box of the aggregate search space plus the best bound proven for it."""

    __slots__ = ("bound", "mu_lo", "mu_hi", "o_lo", "o_hi",
                 "m_lo", "m_hi", "d_lo", "d_hi")

    def __init__(self, bound, mu_lo, mu_hi, o_lo, o_hi, m_lo, m_hi, d_lo, d_hi):
        self.bound = bound
        self.mu_lo = mu_lo
        self.mu_hi = mu_hi
        self.o_lo = o_lo
        self.o_hi = o_hi
        self.m_lo = m_lo
        self.m_hi = m_hi
        self.d_lo = d_lo
        self.d_hi = d_hi

    def child(self):
        return _Node(self.bound, list(self.mu_lo), list(self.mu_hi),
                     list(self.o_lo), list(self.o_hi), list(self.m_lo),
                     list(self.m_hi), list(self.d_lo), list(self.d_hi))


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
        "use_tm": use_tm, "use_ti": use_ti, "nvar": nv,
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
    mu_lo = [0 if servers[s].optional_flag else 1 for s in range(S)]
    mu_hi = [1] * S
    o_lo = [0] * (K * S)
    o_hi = [ctx["n0"][k][s] for k in range(K) for s in range(S)]
    m_lo = [0] * (K * S)
    m_hi = [ctx["pool"][k] for k in range(K) for s in range(S)]
    d_lo = [0] * (K * S)
    d_hi = [ctx["pend"][k] for k in range(K) for s in range(S)]
    return _Node(-math.inf, mu_lo, mu_hi, o_lo, o_hi, m_lo, m_hi, d_lo, d_hi)


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

    bounds = [None] * nv
    w_hi = [0.0] * S
    p_lo = [0.0] * S
    p_hi = [0.0] * S
    for k in range(K):
        for s in range(S):
            i = k * S + s
            bounds[i_o(k, s)] = (node.o_lo[i], node.o_hi[i])
            bounds[i_m(k, s)] = (node.m_lo[i], node.m_hi[i])
            bounds[i_d(k, s)] = (node.d_lo[i], node.d_hi[i])
    for s in range(S):
        # the lowest and highest window in the box, at its two corners
        col = range(s, K * S, S)
        if exceeds(source_window(problem, [node.o_lo[i] for i in col],
                                 [node.d_lo[i] for i in col]), slot):
            return None, None  # every point in the box blows the slot
        w_hi[s] = min(slot, source_window(problem,
                                          [node.o_hi[i] for i in col],
                                          [node.d_hi[i] for i in col]))
        lo = q_e * node.mu_lo[s]
        hi = q_e * node.mu_hi[s]
        for k in range(K):
            i = k * S + s
            h_lo = max(0, n0[k][s] - node.o_hi[i]) + node.m_lo[i] + node.d_lo[i]
            h_hi = min(n0[k][s] - node.o_lo[i] + node.m_hi[i] + node.d_hi[i],
                       n_tot[k])
            lo += p_e[k] * h_lo
            hi += p_e[k] * h_hi
        p_lo[s] = min(lo, hi)
        p_hi[s] = hi
        bounds[i_w(s)] = (0.0, w_hi[s])
        bounds[i_p(s)] = (p_lo[s], p_hi[s])
        bounds[i_z(s)] = (0.0, w_hi[s] * p_hi[s])
        bounds[i_mu(s)] = (node.mu_lo[s], node.mu_hi[s])
    if ctx["use_tm"]:
        for i in range(K * S):
            bounds[ctx["base_tm"] + i] = (1 if node.o_lo[i] > 0 else 0,
                                          0 if node.o_hi[i] == 0 else 1)
    if ctx["use_ti"]:
        for i in range(K * S):
            bounds[ctx["base_ti"] + i] = (1 if node.d_lo[i] > 0 else 0,
                                          0 if node.d_hi[i] == 0 else 1)

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


def _extract_integral(ctx, x):
    """Round an integral LP point into aggregate dicts, or None."""
    K, S = ctx["K"], ctx["S"]
    i_o, i_m, i_d, i_mu = ctx["i_o"], ctx["i_m"], ctx["i_d"], ctx["i_mu"]
    vals = []
    for idx in ([i_o(k, s) for k in range(K) for s in range(S)]
                + [i_m(k, s) for k in range(K) for s in range(S)]
                + [i_d(k, s) for k in range(K) for s in range(S)]
                + [i_mu(s) for s in range(S)]):
        v = x[idx]
        r = round(v)
        if abs(v - r) > _INT_TOL:
            return None
        vals.append(int(r))
    classes = ctx["classes"]
    ks = K * S
    outgoing = {cls: vals[k * S:(k + 1) * S] for k, cls in enumerate(classes)}
    incoming = {cls: vals[ks + k * S:ks + (k + 1) * S]
                for k, cls in enumerate(classes)}
    deploys = {cls: vals[2 * ks + k * S:2 * ks + (k + 1) * S]
               for k, cls in enumerate(classes)}
    mu = tuple(vals[3 * ks:3 * ks + S])
    return mu, outgoing, incoming, deploys


def _box_points(ctx, node):
    """Iterate all integer aggregate points of a fully mu-fixed node."""
    K, S = ctx["K"], ctx["S"]
    classes = ctx["classes"]
    ranges = []
    for arr_lo, arr_hi in ((node.o_lo, node.o_hi), (node.m_lo, node.m_hi),
                           (node.d_lo, node.d_hi)):
        for i in range(K * S):
            ranges.append(range(arr_lo[i], arr_hi[i] + 1))
    mu = tuple(node.mu_lo)
    ks = K * S
    for point in itertools.product(*ranges):
        outgoing = {cls: list(point[k * S:(k + 1) * S])
                    for k, cls in enumerate(classes)}
        incoming = {cls: list(point[ks + k * S:ks + (k + 1) * S])
                    for k, cls in enumerate(classes)}
        deploys = {cls: list(point[2 * ks + k * S:2 * ks + (k + 1) * S])
                   for k, cls in enumerate(classes)}
        yield mu, outgoing, incoming, deploys


def _box_size(node):
    size = 1
    for lo, hi in ((node.o_lo, node.o_hi), (node.m_lo, node.m_hi),
                   (node.d_lo, node.d_hi)):
        for i in range(len(lo)):
            size *= hi[i] - lo[i] + 1
            if size > _ENUM_CAP:
                return size
    return size


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
    K, S = ctx["K"], ctx["S"]
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

        # activation branching first
        branch_mu = next((s for s in range(S)
                          if node.mu_lo[s] < node.mu_hi[s]), None)
        if branch_mu is not None:
            s = branch_mu
            on = node.child()
            on.mu_lo[s] = 1
            children = []
            if drain_ok(problem, s):
                off = node.child()
                off.mu_hi[s] = 0
                for k in range(K):
                    i = k * S + s
                    off.o_lo[i] = off.o_hi[i] = ctx["n0"][k][s]
                    off.m_lo[i] = off.m_hi[i] = 0
                    off.d_lo[i] = off.d_hi[i] = 0
                children.append(off)
            children.append(on)
            for ch in reversed(children):
                stack.append((ch, None, None))
            continue

        if _box_size(node) <= _ENUM_CAP:
            for point in _box_points(ctx, node):
                hit = _try_candidate(ctx, *point)
                if hit is not None and hit[1] < inc_obj - slack(inc_obj):
                    incumbent, inc_obj = hit
                    trace.append(("incumbent", time.perf_counter() - t0,
                                  inc_obj))
            continue

        # first fractional aggregate, else first open box
        boxes = [(node.o_lo, node.o_hi, ctx["i_o"]),
                 (node.m_lo, node.m_hi, ctx["i_m"]),
                 (node.d_lo, node.d_hi, ctx["i_d"])]
        pick = None
        for lo, hi, idx in boxes:
            for k in range(K):
                for s in range(S):
                    i = k * S + s
                    if lo[i] >= hi[i]:
                        continue
                    v = node_x[idx(k, s)]
                    if abs(v - round(v)) > _INT_TOL:
                        pick = (lo, hi, i, v)
                        break
                if pick:
                    break
            if pick:
                break
        if pick is None:
            for lo, hi, idx in boxes:
                for i in range(K * S):
                    if lo[i] < hi[i]:
                        pick = (lo, hi, i, node_x[idx(i // S, i % S)])
                        break
                if pick:
                    break
        lo_arr, hi_arr, i, v = pick
        pivot = min(max(int(math.floor(v)), lo_arr[i]), hi_arr[i] - 1)
        which = 0 if lo_arr is node.o_lo else (1 if lo_arr is node.m_lo else 2)
        low, high = node.child(), node.child()
        for ch, new_lo, new_hi in ((low, lo_arr[i], pivot),
                                   (high, pivot + 1, hi_arr[i])):
            arr_lo, arr_hi = ((ch.o_lo, ch.o_hi), (ch.m_lo, ch.m_hi),
                              (ch.d_lo, ch.d_hi))[which]
            arr_lo[i] = new_lo
            arr_hi[i] = new_hi
        stack.append((high, None, None))
        stack.append((low, None, None))

    if incumbent is None:
        return finalize(STATUS_INFEASIBLE,
                        "no feasible assignment; check capacity (18) and "
                        "downtime (20) budgets")
    return finalize(STATUS_OPTIMAL)
