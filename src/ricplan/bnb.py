"""Exact consolidation solver: best-bound branch and bound over aggregates.

The search works on per-(class, server) aggregate counts (outgoing, incoming,
deployed) plus the activation vector, not on the full origin/destination
tensor; a lex-minimal transport reconstruction expands any realizable
aggregate into a concrete plan.  Lower bounds come from an LP relaxation
with McCormick envelopes around the window-times-power bilinear term.
Incumbents are only ever accepted after exact re-evaluation through the
energy model and the full plan validator, so the reported objective is
always a true, feasible plan energy.

Each solve builds one `_Solve`, which holds the problem's constants, the
column layout and the node LP, its matrix written row by row; a node is a
box `lo`, `hi` over its node vector (o | m | d | mu).  Only the column
bounds, the envelope coefficients `env` and the envelope and downtime
right-hand sides depend on the node, and each of them belongs to one server:
`_solve_lp` keeps per server the last box it saw, and rewrites a server's
values and marks it dirty only when its box changed.  Every node LP goes
through the module-level name `linprog`, looked up at each call.  Each solve
keeps one live HiGHS model, through scipy's bundled binding: the first LP
loads the skeleton (presolve on, dual simplex, as
`scipy.optimize.linprog(method="highs")` sets); every LP pushes all column
bounds and the other values of the dirty servers (of all servers after a
failed push) and solves, from the previous basis after the first.  A point
counts as optimal only if it passes linprog's residual check.  A warm start
can land on a different optimal vertex than a cold solve of the same LP, so
the LP value does not depend on the nodes solved before (beyond rounding),
but the branching can.

Every node, the root included, takes the same step: pop, LP, candidate,
branch.  Only an LP proven infeasible closes a node.  A failed LP (iteration
limit, numerical trouble) keeps the node's inherited bound, and the node
branches without an LP point.  The candidate is the integral LP point; a
fixed box is judged as its one point whether or not its LP succeeded, and
then closes.

Branching is deterministic: activation variables first (lowest index, the
off-child pushed last, with full-drain propagation), then the first open
aggregate whose LP value is fractional, else the first open one, splitting
its bounds at the LP value (at its midpoint without an LP point).  Runs are
sequential and reproducible.

Node selection is best-bound (Land & Doig, 1960): the open nodes sit in a
heap keyed on the bound each inherited from its parent, the lowest first
and, among equal bounds, the node pushed last.  So the heap top is the
lowest bound of any open box, and the certified floor, min(the heap top,
the node's bound, the incumbent), costs O(1) at every node that survives its
bound test, and rises as soon as the weakest open box is closed.

Stopping: "gap_reached" at the first such node whose gap to the incumbent
is within a positive `gap_target`, "time_limit" at the first pop past the
deadline, and otherwise when the heap is empty ("optimal", or "infeasible"
without an incumbent).  A `bound` trace event is appended whenever the floor
rises.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
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

    `lo` and `hi` bound the node vector (o | m | d | mu) of `_Solve`; an
    open node waits in the search heap under the bound it inherited.
    """

    __slots__ = ("bound", "lo", "hi")

    def __init__(self, bound, lo, hi):
        self.bound = bound
        self.lo = lo
        self.hi = hi

    def child(self):
        return _Node(self.bound, list(self.lo), list(self.hi))


class _Solve:
    """One solve: the problem's constants, the column layout and the node LP.

    Constants: K classes, S servers, `n0[k][s]` xApps of class k staged on
    server s, `pend[k]` pending deploys, `pool[k]` staged in all, `n_tot[k]`
    both, and whether the `tm` and `ti` indicator columns are in use.

    Layout: the LP columns are, in order, the aggregates `o`, `m`, `d`
    (outgoing, incoming, deployed; (K, S) index arrays), per server the
    window `w`, the power `p`, their product `z` and the activation `mu`
    (S each), then the indicators `tm` and `ti` ((K, S) each, no rows when
    not in use).  A node vector (o | m | d | mu) holds the A aggregates at
    their LP columns and the S activations after them: `node_cols` maps
    each entry to its LP column, and `at[s]` lists server s's entries (its
    o, m and d per class, then its activation).  `pick[s]` reads server s's
    entries of a node vector as one tuple, and `server_cols[s]` holds their
    LP columns.

    LP: minimise c.x subject to M x <= rhs on the first m_ub rows, M x ==
    rhs on the rest, and lb <= x <= ub.  M is held row-wise, as HiGHS takes
    it: row i's columns are index[starts[i]:starts[i + 1]], its coefficients
    the same slice of data.  Only the column bounds, the 6*S McCormick
    coefficients env (at row env_at[0], column env_at[1]; data holds a
    placeholder there) and the right-hand sides rhs[node_rows] depend on
    the node.  env holds 6 entries per server and node_rows one row of
    entries per server (its 2 envelope rows, then its downtime row outside
    sdl).  `_solve_lp` writes those before each solve, server by server:
    `boxes[s]` is the last box of server s it saw and whether that box
    passed the slot prune, one entry per server; `dirty` holds the servers
    whose box changed since `linprog` last pushed their values into
    `highs`, the solve's live HiGHS model.
    """

    __slots__ = ("problem", "co", "K", "S", "A", "n0", "pend", "pool",
                 "n_tot", "use_tm", "use_ti", "o", "m", "d", "w", "p", "z",
                 "mu", "tm", "ti", "node_cols", "at", "pick", "server_cols",
                 "c", "starts", "index", "data", "rhs", "lb", "ub", "m_ub",
                 "env", "env_at", "node_rows", "highs", "boxes", "dirty")


def _context(problem: SalProblem):
    """The `_Solve` of `problem`, built once per solve."""
    ctx = _Solve()
    classes, co = problem.classes, problem.coeffs
    ctx.problem, ctx.co = problem, co
    ctx.K, ctx.S = K, S = len(classes), problem.n_servers
    ctx.A = 3 * K * S
    ctx.n0 = [[problem.staged[cls][s] for s in range(S)] for cls in classes]
    ctx.pend = [problem.staged[cls][S] for cls in classes]
    ctx.pool = [sum(row) for row in ctx.n0]
    ctx.n_tot = [p + q for p, q in zip(ctx.pool, ctx.pend)]
    ctx.use_tm = co.kpi["b_m"] > 0 and any(ctx.pool)
    ctx.use_ti = co.inst["b_m"] > 0 and any(ctx.pend)

    # the column layout (see `_Solve`): blocks of rows of S columns each
    ends = list(itertools.accumulate(
        (K, K, K, 1, 1, 1, 1, K * ctx.use_tm, K * ctx.use_ti)))
    cols = np.arange(ends[-1] * S).reshape(-1, S)
    (ctx.o, ctx.m, ctx.d, (ctx.w,), (ctx.p,), (ctx.z,), (ctx.mu,), ctx.tm,
     ctx.ti) = (cols[a:b] for a, b in zip([0] + ends, ends))
    ctx.node_cols = np.concatenate(
        (ctx.o.ravel(), ctx.m.ravel(), ctx.d.ravel(), ctx.mu))
    ctx.at = tuple(zip(ctx.o.T.tolist(), ctx.m.T.tolist(), ctx.d.T.tolist(),
                       range(ctx.A, ctx.A + S)))
    entries = [[*o_s, *m_s, *d_s, a] for o_s, m_s, d_s, a in ctx.at]
    ctx.pick = [operator.itemgetter(*e) for e in entries]
    ctx.server_cols = [ctx.node_cols[e] for e in entries]
    ctx.c = np.zeros(cols.size)
    _node_lp(ctx)
    return ctx


def _node_lp(ctx):
    """Build the node LP skeleton of `ctx` (see `_Solve`)."""
    co, params = ctx.co, ctx.problem.params
    servers = ctx.problem.state.servers
    sdl = params.strategy is StrategyId.SDL
    # the engine's CPU overhead is left to exact checks
    share = co.overhead if sdl else dict.fromkeys(RESOURCES, 0.0)
    p_e, q_e = co.loads["E"], co.idle["E"]
    K, S, n0, pend = ctx.K, ctx.S, ctx.n0, ctx.pend
    # the layout as lists of ints: the skeleton is written entry by entry
    o, m, d, tm, ti, w, p, z, mu = (cols.tolist() for cols in (
        ctx.o, ctx.m, ctx.d, ctx.tm, ctx.ti, ctx.w, ctx.p, ctx.z, ctx.mu))
    c = ctx.c
    nv = len(c)
    c[w] = [q_e + sum(p_e[k] * n0[k][s] for k in range(K)) for s in range(S)]
    c[p] = params.slot_length
    c[z] = -1.0
    c[mu] += co.backend_energy
    e_tau_o = co.engine_power * co.kpi["delta_m"]
    if e_tau_o:
        c[ctx.o] += e_tau_o
    if ctx.use_tm and co.engine_power:
        c[ctx.tm] += co.engine_power * co.kpi["b_m"]

    starts, index, data, rhs = [0], [], [], []

    def row(b, *entries):
        """Append the row sum(v * x[j] for j, v in entries) <= or == b; no
        row names a column twice, and zero coefficients are left out."""
        for j, v in entries:
            if v:
                index.append(j)
                data.append(v)
        starts.append(len(index))
        rhs.append(b)

    nan = math.nan  # a node-dependent right-hand side, written per node
    one = 1.0  # placeholder of a node-dependent coefficient, pushed per node
    for k in range(K):
        for s in range(S):
            if ctx.use_tm and n0[k][s] > 0:
                row(0.0, (o[k][s], 1.0), (tm[k][s], -float(n0[k][s])))
            if ctx.use_ti and pend[k] > 0:
                row(0.0, (d[k][s], 1.0), (ti[k][s], -float(pend[k])))
            # hosting only on powered servers
            row(-float(n0[k][s]), (o[k][s], -1.0), (m[k][s], 1.0),
                (d[k][s], 1.0), (mu[s], -float(ctx.n_tot[k])))
            # a migrating unit cannot land back on its own source:
            # o[k][s] + m[k][s] <= sum(o[k]), its o[k][s] terms cancelled
            if ctx.pool[k] > 0:
                row(0.0, (m[k][s], 1.0),
                    *((j, -1.0) for j in o[k] if j != o[k][s]))
    env, node_rows = [], []
    for s, (o_s, m_s, d_s, _) in enumerate(ctx.at):
        aggs = list(zip(o_s, m_s, d_s))
        if servers[s].optional_flag:
            row(float(sum(n0[k][s] for k in range(K))), (mu[s], 1.0),
                *(e for i, j, l in aggs
                  for e in ((i, 1.0), (j, -1.0), (l, -1.0))))
        for ri, r in enumerate(RESOURCES):
            load = co.loads[r]
            cap = (servers[s].cpu_cap, servers[s].mem_cap,
                   servers[s].disk_cap)[ri]
            row(0.0 - sum(load[k] * n0[k][s] for k in range(K)),
                (mu[s], co.idle[r] + share[r] - cap),
                *(e for k, (i, j, l) in enumerate(aggs)
                  for e in ((i, -load[k]), (j, load[k]), (l, load[k]))))
        if not sdl:
            down = len(rhs)
            row(nan, *((i, co.kpi["delta_d"]) for i in o_s))
        # McCormick envelope for z = W * P
        first = len(rhs)
        row(nan, (z[s], 1.0), (p[s], one), (w[s], one))
        row(0.0, (z[s], 1.0), (w[s], one))
        row(0.0, (w[s], one), (z[s], -1.0))
        row(nan, (p[s], one), (w[s], one), (z[s], -1.0))
        env += [(first, p[s]), (first, w[s]), (first + 1, w[s]),
                (first + 2, w[s]), (first + 3, p[s]), (first + 3, w[s])]
        node_rows.append([first, first + 3] + ([] if sdl else [down]))
    m_ub = len(rhs)
    for k in range(K):
        row(0.0, *((j, 1.0) for j in o[k]), *((j, -1.0) for j in m[k]))
        row(float(pend[k]), *((j, 1.0) for j in d[k]))
    dm, bm = co.kpi["delta_m"], co.kpi["b_m"]
    dt, bt = co.inst["delta_m"], co.inst["b_m"]
    for s in range(S):
        row(0.0, (w[s], 1.0),
            *(e for k in range(K) for e in (
                ((o[k][s], -dm), (d[k][s], -dt))
                + (((tm[k][s], -bm),) if ctx.use_tm else ())
                + (((ti[k][s], -bt),) if ctx.use_ti else ()))))
        row(sum(p_e[k] * n0[k][s] for k in range(K)), (p[s], 1.0),
            (mu[s], -q_e),
            *(e for k in range(K) for e in (
                (o[k][s], p_e[k]), (m[k][s], -p_e[k]), (d[k][s], -p_e[k]))))

    ctx.starts, ctx.index, ctx.data = starts, index, data
    ctx.env_at = np.array(env).T
    ctx.env = np.zeros(len(env))
    ctx.node_rows = np.array(node_rows)
    ctx.m_ub, ctx.rhs, ctx.highs = m_ub, np.array(rhs), None
    ctx.lb, ctx.ub = np.zeros(nv), np.zeros(nv)
    ctx.boxes, ctx.dirty = [(None, False)] * S, set()


def _root_node(ctx):
    servers = ctx.problem.state.servers
    lo = [0] * ctx.node_cols.size
    hi = list(lo)
    for s, (o_s, m_s, d_s, a) in enumerate(ctx.at):
        lo[a], hi[a] = 0 if servers[s].optional_flag else 1, 1
        for k, (o, m, d) in enumerate(zip(o_s, m_s, d_s)):
            hi[o], hi[m], hi[d] = ctx.n0[k][s], ctx.pool[k], ctx.pend[k]
    return _Node(-math.inf, lo, hi)


def _solve_lp(ctx, node):
    """LP relaxation of the node: (value, x); (None, None) when the box is
    proven infeasible, and (-inf, None) when the LP failed and proves
    nothing."""
    lo, hi = node.lo, node.hi
    for s, pick in enumerate(ctx.pick):
        box = pick(lo), pick(hi)
        seen = ctx.boxes[s]
        if seen[0] != box:
            seen = ctx.boxes[s] = box, _write_server(ctx, s, *box)
            ctx.dirty.add(s)
        if not seen[1]:
            return None, None  # every point in the box blows the slot

    res = linprog(ctx)
    if res.status == 2:
        return None, None
    if not res.success:
        return -math.inf, None
    return float(res.fun), res.x


def _write_server(ctx, s, lo, hi):
    """Write server s's part of the node LP for the box `lo`, `hi` of its
    entries (in `pick[s]` order); False, writing nothing, when every point
    in the box blows the slot."""
    problem, K, n_tot = ctx.problem, ctx.K, ctx.n_tot
    p_e, q_e = ctx.co.loads["E"], ctx.co.idle["E"]
    slot = problem.params.slot_length
    o_lo, m_lo, d_lo = lo[:K], lo[K:2 * K], lo[2 * K:3 * K]
    o_hi, m_hi, d_hi = hi[:K], hi[K:2 * K], hi[2 * K:3 * K]
    # the lowest and highest window in the box, at its two corners
    if exceeds(source_window(problem, o_lo, d_lo), slot):
        return False
    w_hi = min(allowance(slot), source_window(problem, o_hi, d_hi))
    pl = q_e * lo[-1]
    ph = q_e * hi[-1]
    for k in range(K):
        n0 = ctx.n0[k][s]
        pl += p_e[k] * (max(0, n0 - o_hi[k]) + m_lo[k] + d_lo[k])
        ph += p_e[k] * min(n0 - o_lo[k] + m_hi[k] + d_hi[k], n_tot[k])
    p_lo, p_hi = min(pl, ph), ph

    lb, ub = ctx.lb, ctx.ub
    cols = ctx.server_cols[s]
    lb[cols], ub[cols] = lo, hi
    ub[ctx.w[s]] = w_hi
    lb[ctx.p[s]], ub[ctx.p[s]] = p_lo, p_hi
    ub[ctx.z[s]] = w_hi * p_hi
    # an indicator must be on when its aggregate's lo > 0, may be when hi > 0
    for use, ind, agg_lo, agg_hi in ((ctx.use_tm, ctx.tm, o_lo, o_hi),
                                     (ctx.use_ti, ctx.ti, d_lo, d_hi)):
        if use:
            lb[ind[:, s]] = [v > 0 for v in agg_lo]
            ub[ind[:, s]] = [v != 0 for v in agg_hi]
    ctx.env[6 * s:6 * s + 6] = -w_hi, -p_lo, -p_hi, p_lo, w_hi, p_hi
    rhs = [-w_hi * p_lo, w_hi * p_hi]
    if problem.params.strategy is not StrategyId.SDL:
        # a class leaving s adds at least delta_d * o[k] + b_d to its
        # downtime, and the validator grants T up to allowance(T), so
        # sum_k delta_d * o[k] <= allowance(T) - b_d * #{k : o[k] > 0}:
        # for b_d < 0 count every class that may leave, else drop the term
        may_leave = sum(1 for v in o_hi if v)
        rhs.append(allowance(problem.params.max_sm_downtime)
                   - min(ctx.co.kpi["b_d"], 0.0) * may_leave)
    ctx.rhs[ctx.node_rows[s]] = rhs
    return True


# `linprog` is the one entry of every node LP.  `_solve_lp` looks the name up
# at each call, so a caller can wrap it.
def linprog(lp):
    """Solve the node LP of `lp` (a `_Solve`) on its live HiGHS model.

    The first call loads the skeleton of `lp` into a new HiGHS instance,
    held in `lp.highs`; if HiGHS rejects the model, `lp.highs` is False and
    every LP of the solve reads status 4 without loading again.  Every call
    pushes the column bounds and the envelope coefficients `lp.env` and
    right-hand sides of `lp.node_rows` of the servers in `lp.dirty` (see
    `_push`), then solves, from the previous basis after the first.
    Returns .status in scipy.optimize.linprog's codes (0 optimal, 1
    iteration or time limit, 2 infeasible, 3 unbounded, 4 anything else,
    including an optimum whose point fails linprog's residual check),
    .success (status 0), .fun and .x.  scipy is imported on the first call,
    not with the package.
    """
    core, options, codes = _highspy()
    if lp.highs is None:
        lp.highs = _load(core, options, lp) or False
    highs = lp.highs
    status, fun, x = 4, None, None
    if highs is not False and _push(core, highs, lp):
        highs.run()
        status = codes.get(highs.getModelStatus(), 4)
    if status == 0:
        fun = highs.getObjectiveValue()
        sol = highs.getSolution()
        x = np.array(sol.col_value)
        slack = lp.rhs - np.array(sol.row_value)
        tol = _RESIDUAL_TOL
        if not (fun == fun and (lp.lb - x).max() <= tol
                and (x - lp.ub).max() <= tol
                and slack[:lp.m_ub].min() >= -tol
                and np.abs(slack[lp.m_ub:]).max() <= tol):
            status = 4
    return SimpleNamespace(status=status, success=status == 0, fun=fun, x=x)


def _push(core, highs, lp):
    """Push into `highs` the whole column-bound vector of `lp`, and the 6
    `env` coefficients and the `node_rows` right-hand sides of each server
    in `lp.dirty`, then clear the set; False if HiGHS refused a push, which
    marks every server dirty, so that the next call pushes every value."""
    n, dirty = lp.lb.size, list(lp.dirty)
    j = [i for s in dirty for i in range(6 * s, 6 * s + 6)]
    rows = lp.node_rows[dirty].ravel()
    statuses = [highs.changeColsBounds(n, np.arange(n, dtype=np.int32),
                                       lp.lb, lp.ub)]
    statuses += map(highs.changeCoeff, *lp.env_at[:, j].tolist(),
                    lp.env[j].tolist())
    statuses += map(highs.changeRowBounds, rows.tolist(),
                    itertools.repeat(-np.inf), lp.rhs[rows].tolist())
    if core.HighsStatus.kError in statuses:
        lp.dirty = set(range(lp.S))
        return False
    lp.dirty.clear()
    return True


@functools.cache
def _highspy():
    """scipy's bundled HiGHS binding, the options that linprog(method=
    "highs") sets, and HiGHS's model statuses in linprog's codes."""
    from scipy.optimize._highspy import _core
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual simplex
    options.highs_debug_level = 0
    options.output_flag = options.log_to_console = False
    ms = _core.HighsModelStatus
    codes = {ms.kOptimal: 0, ms.kTimeLimit: 1, ms.kIterationLimit: 1,
             ms.kInfeasible: 2, ms.kUnbounded: 3}
    return _core, options, codes


_RESIDUAL_TOL = math.sqrt(1e-9) * 10  # linprog's check of an optimal point


def _load(core, options, lp):
    """A new HiGHS instance holding `lp`, or None if HiGHS rejects it."""
    n, m = len(lp.c), len(lp.rhs)
    hlp = core.HighsLp()
    hlp.num_col_, hlp.num_row_ = n, m
    mat = hlp.a_matrix_
    mat.num_col_, mat.num_row_ = n, m
    mat.format_ = core.MatrixFormat.kRowwise
    mat.start_, mat.index_, mat.value_ = lp.starts, lp.index, lp.data
    hlp.col_cost_, hlp.col_lower_, hlp.col_upper_ = lp.c, lp.lb, lp.ub
    hlp.row_lower_ = np.concatenate((np.full(lp.m_ub, -np.inf),
                                     lp.rhs[lp.m_ub:]))
    hlp.row_upper_ = lp.rhs
    highs = core._Highs()
    highs.passOptions(options)
    if highs.passModel(hlp) == core.HighsStatus.kError:
        return None
    return highs


def _try_candidate(ctx, mu, outgoing, incoming, deploys):
    """Exact evaluation of an aggregate assignment; (plan, energy) or None."""
    problem = ctx.problem
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

    def per_class(cols):
        return {cls: [vals[i] for i in row]
                for cls, row in zip(ctx.problem.classes, cols.tolist())}

    return (tuple(vals[a] for *_, a in ctx.at), per_class(ctx.o),
            per_class(ctx.m), per_class(ctx.d))


def _extract_integral(ctx, x):
    """Round an integral LP point into aggregate dicts, or None."""
    vals = x[ctx.node_cols]
    ints = np.round(vals)
    if np.any(np.abs(vals - ints) > _INT_TOL):
        return None
    return _split(ctx, ints.astype(int).tolist())


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
                status=STATUS_INFEASIBLE, objective=None, lower_bound=math.inf,
                runtime=time.perf_counter() - t0, nodes_explored=0,
                detail="(21) backend maintenance budget", trace=(),
            )

    ctx = _context(problem)
    # nodes bounded at `cutoff` or more cannot beat the incumbent (+inf: none)
    incumbent, inc_obj, cutoff = None, math.inf, math.inf

    def accept(plan, obj):
        nonlocal incumbent, inc_obj, cutoff
        incumbent, inc_obj = plan, obj
        cutoff = obj - 1e-9 * max(1.0, abs(obj))
        trace.append(("incumbent", time.perf_counter() - t0, obj))

    seed, _ = solve_greedy(problem)
    if seed is not None:
        accept(seed, seed.energy_total)

    nodes, best_lb, heap, order = 0, -math.inf, [], itertools.count()

    def push(node):
        heapq.heappush(heap, (node.bound, -next(order), node))

    push(_root_node(ctx))

    def open_lb():
        """Certified floor: the lowest bound of an open box, or inc_obj."""
        return min(heap[0][0] if heap else math.inf, inc_obj)

    def finalize(status, detail="", lb=None):
        plan = incumbent
        # greedy's seed comes annotated; only the plans bnb built need it
        if plan is not None and plan.energy_total is None:
            plan = annotate_plan(problem, plan)
        obj = None if plan is None else inc_obj
        if status == STATUS_OPTIMAL:
            lb = obj
        elif lb is None:
            lb = open_lb()
        trace.append(("bound", time.perf_counter() - t0, lb))
        return plan, SolveReport(
            status=status, objective=obj, lower_bound=lb,
            runtime=time.perf_counter() - t0,
            nodes_explored=nodes, detail=detail, trace=tuple(trace),
        )

    while heap:
        if time.perf_counter() - t0 > limits.time_limit:
            return finalize(STATUS_TIME, "time limit reached")
        node = heapq.heappop(heap)[2]
        nodes += 1
        if node.bound >= cutoff:
            continue
        node_lp, node_x = _solve_lp(ctx, node)
        if node_lp is None:
            continue
        node.bound = max(node.bound, node_lp)
        if node.bound >= cutoff:
            continue

        glb = min(open_lb(), node.bound)
        if glb > best_lb:
            best_lb = glb
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
            if hit is not None and hit[1] < cutoff:
                accept(*hit)
                if node.bound >= cutoff:
                    continue

        # activation branching first; the on-child is pushed first
        s = next((s for s, (*_, a) in enumerate(ctx.at) if lo[a] < hi[a]),
                 None)
        if s is not None:
            o_s, m_s, d_s, a = ctx.at[s]
            on = node.child()
            on.lo[a] = 1
            push(on)
            if drain_ok(problem, s):
                off = node.child()
                off.hi[a] = 0
                for k, (o, m, d) in enumerate(zip(o_s, m_s, d_s)):
                    off.lo[o] = off.hi[o] = ctx.n0[k][s]
                    off.lo[m] = off.hi[m] = off.lo[d] = off.hi[d] = 0
                push(off)
            continue

        # first fractional open aggregate, else the first open one; without
        # an LP point, the first open one split at its midpoint
        open_cols = [i for i in range(ctx.A) if lo[i] < hi[i]]
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
        push(high)
        push(low)

    if incumbent is None:
        return finalize(STATUS_INFEASIBLE,
                        "no feasible assignment; check capacity (18) and "
                        "downtime (20) budgets")
    return finalize(STATUS_OPTIMAL)
