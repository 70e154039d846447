"""Exact consolidation solver: depth-first branch and bound over aggregates.

The search works on per-(class, server) aggregate counts (outgoing, incoming,
deployed) plus the activation vector, not on the full origin/destination
tensor; a lex-minimal transport reconstruction expands any realizable
aggregate into a concrete plan.  Lower bounds come from an LP relaxation
with McCormick envelopes around the window-times-power bilinear term.
Incumbents are only ever accepted after exact re-evaluation through the
energy model and the full plan validator, so the reported objective is
always a true, feasible plan energy.

A node is a box given by one bound vector pair `lo`, `hi` over
(o | m | d | mu): the first A = 3*K*S entries are the aggregate LP columns in
LP order (outgoing, incoming, deployed; class-major, then server), the last S
the activations.  The LP's aggregate column bounds are `lo[:A]`, `hi[:A]`;
an integral LP point and a fixed box (`lo == hi`) split back into
(mu, outgoing, incoming, deploys) the same way.

The node LP is built once per solve (`_NodeLP`: cost vector, one CSC
matrix, row sides); per node `_solve_lp` writes only the column bounds, the
envelope coefficients and the envelope and downtime right-hand sides.  Every
node LP goes through the module-level name `linprog`, looked up at each call.
Each solve keeps one live HiGHS model, through scipy's bundled binding: the
first LP loads the skeleton (presolve on, dual simplex, as
`scipy.optimize.linprog(method="highs")` sets); every later LP pushes those
node-dependent values and re-solves from the previous basis.  A point counts
as optimal only if it passes linprog's residual check.  A warm start can
land on a different optimal vertex than a cold solve of the same LP, so the
LP value does not depend on the nodes solved before (beyond rounding), but
the branching can.

Every node, the root included, takes the same step: pop, LP, candidate,
branch.  Only an LP proven infeasible closes a node.  A failed LP (iteration
limit, numerical trouble) keeps the node's inherited bound, and the node
branches without an LP point.  The candidate is the integral LP point; a
fixed box is judged as its one point whether or not its LP succeeded, and
then closes.

Branching is deterministic: activation variables first (lowest index, the
off-child explored first, with full-drain propagation), then the first open
aggregate whose LP value is fractional, else the first open one, splitting
its bounds at the LP value (at its midpoint without an LP point).  Runs are
sequential and reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from types import SimpleNamespace

import numpy as np

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
    classes = problem.classes
    K, S = len(classes), problem.n_servers
    co = problem.coeffs

    n0 = [[problem.staged[cls][s] for s in range(S)] for cls in classes]
    pend = [problem.staged[cls][S] for cls in classes]
    pool = [sum(row) for row in n0]
    ctx = {
        "problem": problem, "co": co, "classes": classes, "K": K, "S": S,
        "A": 3 * K * S, "n0": n0, "pend": pend, "pool": pool,
        "n_tot": [pool[k] + pend[k] for k in range(K)],
        "use_tm": co.kpi["b_m"] > 0 and any(pool),
        "use_ti": co.inst["b_m"] > 0 and any(pend),
    }
    ctx["lp"] = _node_lp(ctx)
    return ctx


class _NodeLP:
    """The node LP of one solve: minimise c.x subject to lhs <= M x <= rhs
    and lb <= x <= ub, with M held as one CSC matrix (indptr, indices, data).

    Columns: the A aggregate columns (o | m | d), then per server the window
    W, the power P, their product z and the activation mu (S each), then the
    `tm` and `ti` indicator columns when in use.  Rows: the m_ub inequality
    rows (lhs -inf), then the equality rows (lhs == rhs).  Only the column
    bounds, the 6*S McCormick coefficients data[env] (at row env_at[0],
    column env_at[1]) and the right-hand sides rhs[node_rows] (2*S envelope
    rows, then the S downtime rows outside sdl) depend on the node;
    `_solve_lp` writes those in place before each solve, and `linprog`
    pushes them into `highs`, the solve's live HiGHS model.
    """

    __slots__ = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub",
                 "m_ub", "env", "env_at", "node_rows", "highs")


def _node_lp(ctx):
    """Build the node LP skeleton once per solve (see `_NodeLP`)."""
    problem, co, params = ctx["problem"], ctx["co"], ctx["problem"].params
    K, S, A = ctx["K"], ctx["S"], ctx["A"]
    n0, pend, pool, n_tot = ctx["n0"], ctx["pend"], ctx["pool"], ctx["n_tot"]
    use_tm, use_ti = ctx["use_tm"], ctx["use_ti"]
    servers = problem.state.servers
    sdl = params.strategy is StrategyId.SDL
    # the engine's CPU overhead is left to exact checks
    share = co.overhead if sdl else dict.fromkeys(RESOURCES, 0.0)
    p_e, q_e = co.loads["E"], co.idle["E"]
    KS = K * S
    nv = A + 4 * S + KS * (use_tm + use_ti)

    def i_o(k, s): return k * S + s
    def i_m(k, s): return KS + k * S + s
    def i_d(k, s): return 2 * KS + k * S + s
    def i_w(s): return A + s
    def i_p(s): return A + S + s
    def i_z(s): return A + 2 * S + s
    def i_mu(s): return A + 3 * S + s
    def i_tm(k, s): return A + 4 * S + k * S + s
    def i_ti(k, s): return A + 4 * S + KS * use_tm + k * S + s

    c = np.zeros(nv)
    for s in range(S):
        c[i_w(s)] = q_e + sum(p_e[k] * n0[k][s] for k in range(K))
        c[i_p(s)] = params.slot_length
        c[i_z(s)] = -1.0
        c[i_mu(s)] += co.backend_energy
    e_tau_o = co.engine_power * co.kpi["delta_m"]
    for k in range(K):
        for s in range(S):
            if e_tau_o:
                c[i_o(k, s)] += e_tau_o
            if use_tm and co.engine_power:
                c[i_tm(k, s)] += co.engine_power * co.kpi["b_m"]

    rows, rhs = [], []

    def row(b, *entries):
        """Append the row sum(v * x[j] for j, v in entries) <= or == b."""
        r = np.zeros(nv)
        for j, v in entries:
            r[j] += v
        rows.append(r)
        rhs.append(b)

    nan = math.nan  # a node-dependent entry, written per node
    for k in range(K):
        for s in range(S):
            if use_tm and n0[k][s] > 0:
                row(0.0, (i_o(k, s), 1.0), (i_tm(k, s), -float(n0[k][s])))
            if use_ti and pend[k] > 0:
                row(0.0, (i_d(k, s), 1.0), (i_ti(k, s), -float(pend[k])))
            # hosting only on powered servers
            row(-float(n0[k][s]), (i_o(k, s), -1.0), (i_m(k, s), 1.0),
                (i_d(k, s), 1.0), (i_mu(s), -float(n_tot[k])))
            # a migrating unit cannot land back on its own source
            if pool[k] > 0:
                row(0.0, (i_o(k, s), 1.0), (i_m(k, s), 1.0),
                    *((i_o(k, s2), -1.0) for s2 in range(S)))
    env, env_rows, down_rows = [], [], []
    for s in range(S):
        aggs = [(k, i_o(k, s), i_m(k, s), i_d(k, s)) for k in range(K)]
        if servers[s].optional_flag:
            row(float(sum(n0[k][s] for k in range(K))), (i_mu(s), 1.0),
                *(e for _, o, m, d in aggs
                  for e in ((o, 1.0), (m, -1.0), (d, -1.0))))
        for ri, r in enumerate(RESOURCES):
            p = co.loads[r]
            cap = (servers[s].cpu_cap, servers[s].mem_cap,
                   servers[s].disk_cap)[ri]
            row(0.0 - sum(p[k] * n0[k][s] for k in range(K)),
                (i_mu(s), co.idle[r] + share[r] - cap),
                *(e for k, o, m, d in aggs
                  for e in ((o, -p[k]), (m, p[k]), (d, p[k]))))
        if not sdl:
            down_rows.append(len(rows))
            row(nan, *((o, co.kpi["delta_d"]) for _, o, _, _ in aggs))
        # McCormick envelope for z = W * P
        w, p, z = i_w(s), i_p(s), i_z(s)
        first = len(rows)
        row(nan, (z, 1.0), (p, nan), (w, nan))
        row(0.0, (z, 1.0), (w, nan))
        row(0.0, (w, nan), (z, -1.0))
        row(nan, (p, nan), (w, nan), (z, -1.0))
        env += [(first, p), (first, w), (first + 1, w), (first + 2, w),
                (first + 3, p), (first + 3, w)]
        env_rows += [first, first + 3]
    m_ub = len(rows)
    for k in range(K):
        row(0.0, *((i_o(k, s), 1.0) for s in range(S)),
            *((i_m(k, s), -1.0) for s in range(S)))
        row(float(pend[k]), *((i_d(k, s), 1.0) for s in range(S)))
    dm, bm = co.kpi["delta_m"], co.kpi["b_m"]
    dt, bt = co.inst["delta_m"], co.inst["b_m"]
    for s in range(S):
        row(0.0, (i_w(s), 1.0),
            *(e for k in range(K) for e in (
                ((i_o(k, s), -dm), (i_d(k, s), -dt))
                + (((i_tm(k, s), -bm),) if use_tm else ())
                + (((i_ti(k, s), -bt),) if use_ti else ()))))
        row(sum(p_e[k] * n0[k][s] for k in range(K)), (i_p(s), 1.0),
            (i_mu(s), -q_e),
            *(e for k in range(K) for e in (
                (i_o(k, s), p_e[k]), (i_m(k, s), -p_e[k]),
                (i_d(k, s), -p_e[k]))))

    lp = _NodeLP()
    # column-major nonzeros: the CSC form of the stacked rows
    dense_t = np.array(rows).T
    cols, lp.indices = np.nonzero(dense_t)
    lp.data = dense_t[cols, lp.indices]
    lp.indices = lp.indices.astype(np.int32)
    lp.indptr = np.searchsorted(cols, np.arange(nv + 1)).astype(np.int32)
    lp.env = np.array([lp.indptr[j] + np.searchsorted(
        lp.indices[lp.indptr[j]:lp.indptr[j + 1]], i) for i, j in env])
    lp.env_at = np.array(env).T
    lp.node_rows = np.array(env_rows + down_rows)
    lp.c, lp.m_ub, lp.highs = c, m_ub, None
    lp.rhs = np.array(rhs)
    lp.lhs = np.concatenate((np.full(m_ub, -np.inf), lp.rhs[m_ub:]))
    lp.lb, lp.ub = np.zeros(nv), np.zeros(nv)
    return lp


def _root_node(ctx):
    K, S = ctx["K"], ctx["S"]
    servers = ctx["problem"].state.servers
    lo = [0] * ctx["A"] + [0 if srv.optional_flag else 1 for srv in servers]
    hi = ([ctx["n0"][k][s] for k in range(K) for s in range(S)]
          + [ctx["pool"][k] for k in range(K) for s in range(S)]
          + [ctx["pend"][k] for k in range(K) for s in range(S)] + [1] * S)
    return _Node(-math.inf, lo, hi)


def _solve_lp(ctx, node):
    """LP relaxation of the node: (value, x); (None, None) when the box is
    proven infeasible, and (-inf, None) when the LP failed and proves
    nothing."""
    K, S, A = ctx["K"], ctx["S"], ctx["A"]
    n0, n_tot = ctx["n0"], ctx["n_tot"]
    co, problem = ctx["co"], ctx["problem"]
    p_e, q_e = co.loads["E"], co.idle["E"]
    slot = problem.params.slot_length
    KS = K * S
    lo, hi = node.lo, node.hi
    w_hi = np.zeros(S)
    p_lo = np.zeros(S)
    p_hi = np.zeros(S)
    for s in range(S):
        # the lowest and highest window in the box, at its two corners
        if exceeds(source_window(problem, lo[s:KS:S], lo[2 * KS + s:A:S]),
                   slot):
            return None, None  # every point in the box blows the slot
        w_hi[s] = min(allowance(slot), source_window(problem, hi[s:KS:S],
                                                     hi[2 * KS + s:A:S]))
        pl = q_e * lo[A + s]
        ph = q_e * hi[A + s]
        for k in range(K):
            i = k * S + s
            h_lo = max(0, n0[k][s] - hi[i]) + lo[KS + i] + lo[2 * KS + i]
            h_hi = min(n0[k][s] - lo[i] + hi[KS + i] + hi[2 * KS + i],
                       n_tot[k])
            pl += p_e[k] * h_lo
            ph += p_e[k] * h_hi
        p_lo[s] = min(pl, ph)
        p_hi[s] = ph

    lp = ctx["lp"]
    lb, ub = lp.lb, lp.ub
    lb[:A], ub[:A] = lo[:A], hi[:A]
    ub[A:A + S] = w_hi  # W, P, z, mu
    lb[A + S:A + 2 * S], ub[A + S:A + 2 * S] = p_lo, p_hi
    ub[A + 2 * S:A + 3 * S] = w_hi * p_hi
    lb[A + 3 * S:A + 4 * S], ub[A + 3 * S:A + 4 * S] = lo[A:], hi[A:]
    base = A + 4 * S  # the tm, then the ti indicators
    for use, first in ((ctx["use_tm"], 0), (ctx["use_ti"], 2 * KS)):
        if use:
            lb[base:base + KS] = np.greater(lo[first:first + KS], 0)
            ub[base:base + KS] = np.not_equal(hi[first:first + KS], 0)
            base += KS
    lp.data[lp.env] = np.column_stack(
        (-w_hi, -p_lo, -p_hi, p_lo, w_hi, p_hi)).ravel()
    rhs = [np.column_stack((-w_hi * p_lo, w_hi * p_hi)).ravel()]
    if problem.params.strategy is not StrategyId.SDL:
        # a class leaving s adds at least delta_d * o[k] + b_d to its
        # downtime, and the validator grants T up to allowance(T), so
        # sum_k delta_d * o[k] <= allowance(T) - b_d * #{k : o[k] > 0}:
        # for b_d < 0 count every class that may leave, else drop the term
        may_leave = np.count_nonzero(np.reshape(hi[:KS], (K, S)), axis=0)
        rhs.append(allowance(problem.params.max_sm_downtime)
                   - min(co.kpi["b_d"], 0.0) * may_leave)
    lp.rhs[lp.node_rows] = np.concatenate(rhs)

    res = linprog(lp)
    if res.status == 2:
        return None, None
    if not res.success:
        return -math.inf, None
    return float(res.fun), res.x


# `linprog` is the one entry of every node LP.  `_solve_lp` looks the name up
# at each call, so a caller can wrap it.
def linprog(lp):
    """Solve the node LP `lp` (a `_NodeLP`) on its live HiGHS model.

    The first call loads `lp` into a new HiGHS instance, held in `lp.highs`;
    each later call pushes the column bounds, the envelope coefficients and
    the right-hand sides of `lp.node_rows`, then re-solves from the previous
    basis.  Returns .status in scipy.optimize.linprog's codes (0 optimal, 1
    iteration or time limit, 2 infeasible, 3 unbounded, 4 anything else,
    including an optimum whose point fails linprog's residual check),
    .success (status 0), .fun and .x.  scipy is imported on the first call,
    not with the package.
    """
    core, options = _highspy()
    highs = lp.highs
    if highs is None:
        highs = lp.highs = _load(core, options, lp)
        pushed = highs is not None
    else:
        n = len(lp.c)
        statuses = [highs.changeColsBounds(n, np.arange(n, dtype=np.int32),
                                           lp.lb, lp.ub)]
        statuses += map(highs.changeCoeff, *lp.env_at, lp.data[lp.env])
        statuses += map(highs.changeRowBounds, lp.node_rows,
                        lp.lhs[lp.node_rows], lp.rhs[lp.node_rows])
        # every node pushes all of these, so a failed push spoils one node
        pushed = core.HighsStatus.kError not in statuses
    status, fun, x = 4, None, None
    if pushed:
        highs.run()
        status = _STATUS.get(highs.getModelStatus().name, 4)
    if status == 0:
        fun = highs.getInfo().objective_function_value
        sol = highs.getSolution()
        x = np.array(sol.col_value)
        slack = lp.rhs - np.array(sol.row_value)
        tol = _RESIDUAL_TOL
        if not (fun == fun and np.all(x >= lp.lb - tol)
                and np.all(x <= lp.ub + tol)
                and np.all(slack[:lp.m_ub] >= -tol)
                and np.all(np.abs(slack[lp.m_ub:]) <= tol)):
            status = 4
    return SimpleNamespace(status=status, success=status == 0, fun=fun, x=x)


@functools.cache
def _highspy():
    """scipy's bundled HiGHS binding and the options that
    linprog(method="highs") sets."""
    from scipy.optimize._highspy import _core
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual simplex
    options.highs_debug_level = 0
    options.output_flag = options.log_to_console = False
    return _core, options


_RESIDUAL_TOL = math.sqrt(1e-9) * 10  # linprog's check of an optimal point
_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1,
           "kInfeasible": 2, "kUnbounded": 3}


def _load(core, options, lp):
    """A new HiGHS instance holding `lp`, or None if HiGHS rejects it."""
    n, m = len(lp.c), len(lp.rhs)
    hlp = core.HighsLp()
    hlp.num_col_, hlp.num_row_ = n, m
    mat = hlp.a_matrix_
    mat.num_col_, mat.num_row_ = n, m
    mat.format_ = core.MatrixFormat.kColwise
    mat.start_, mat.index_, mat.value_ = lp.indptr, lp.indices, lp.data
    hlp.col_cost_, hlp.col_lower_, hlp.col_upper_ = lp.c, lp.lb, lp.ub
    hlp.row_lower_, hlp.row_upper_ = lp.lhs, lp.rhs
    highs = core._Highs()
    highs.passOptions(options)
    if highs.passModel(hlp) == core.HighsStatus.kError:
        return None
    return highs


def _try_candidate(ctx, mu, outgoing, incoming, deploys):
    """Exact evaluation of an aggregate assignment; (plan, energy) or None."""
    problem = ctx["problem"]
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
    mu0 = ctx["A"] + 3 * ctx["S"]
    vals = []
    for v in itertools.chain(x[:ctx["A"]], x[mu0:mu0 + ctx["S"]]):
        r = round(v)
        if abs(v - r) > _INT_TOL:
            return None
        vals.append(int(r))
    return _split(ctx, vals)


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

    nodes = 0
    stack = [_root_node(ctx)]

    def open_lb(extra=None):
        """Certified floor: min bound over open boxes plus the incumbent."""
        vals = [n.bound for n in stack]
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
        node = stack.pop()
        nodes += 1
        if node.bound >= inc_obj - slack(inc_obj):
            continue
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

        lo, hi = node.lo, node.hi
        # a fixed box is judged as its one point, whatever its LP returned
        if lo == hi:
            cand = _split(ctx, lo)
        else:
            cand = None if node_x is None else _extract_integral(ctx, node_x)
        if cand is not None:
            hit = _try_candidate(ctx, *cand)
            if hit is not None and hit[1] < inc_obj - slack(inc_obj):
                incumbent, inc_obj = hit
                trace.append(("incumbent", time.perf_counter() - t0, inc_obj))
                if node.bound >= inc_obj - slack(inc_obj):
                    continue

        # activation branching first; the on-child is explored second
        s = next((s for s in range(S) if lo[A + s] < hi[A + s]), None)
        if s is not None:
            on = node.child()
            on.lo[A + s] = 1
            stack.append(on)
            if drain_ok(problem, s):
                off = node.child()
                off.hi[A + s] = 0
                for k in range(K):
                    i = k * S + s
                    for j, v in ((i, ctx["n0"][k][s]), (K * S + i, 0),
                                 (2 * K * S + i, 0)):
                        off.lo[j] = off.hi[j] = v
                stack.append(off)
            continue

        # first fractional open aggregate, else the first open one; without
        # an LP point, the first open one split at its midpoint
        open_cols = [i for i in range(A) if lo[i] < hi[i]]
        if not open_cols:
            continue
        if node_x is None:
            i = open_cols[0]
            pivot = (lo[i] + hi[i]) // 2
        else:
            i = next((i for i in open_cols
                      if abs(node_x[i] - round(node_x[i])) > _INT_TOL),
                     open_cols[0])
            pivot = min(max(int(math.floor(node_x[i])), lo[i]), hi[i] - 1)
        low, high = node.child(), node.child()
        low.hi[i] = pivot
        high.lo[i] = pivot + 1
        stack.append(high)
        stack.append(low)

    if incumbent is None:
        return finalize(STATUS_INFEASIBLE,
                        "no feasible assignment; check capacity (18) and "
                        "downtime (20) budgets")
    return finalize(STATUS_OPTIMAL)
