"""Exhaustive oracle, branch-and-bound, and greedy heuristic."""

import heapq
import importlib
import importlib.util
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ricplan import (
    ClusterState,
    ServerSpec,
    SolveLimits,
    build_problem,
    load_calibration,
    solve_bnb,
    solve_bruteforce,
    solve_greedy,
    validate_plan,
)
from ricplan import bnb, bruteforce
from ricplan.bruteforce import SearchSpaceError
from ricplan.orchestrator import SweepSpec, balanced_state, mix_counts
from ricplan.scenario import parse_scenario
from ricplan.problem import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_NO_PLAN,
    STATUS_OPTIMAL,
    STATUS_TIME,
    MigrationPlan,
    objective_eval,
    plan_from_aggregates,
    source_window,
)
from tests.conftest import make_class, make_params, make_servers


def low_load_problem(cal, state, params):
    return build_problem(state, params, cal)


# exhaustive oracle

def test_bruteforce_consolidates_low_load(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan, report = solve_bruteforce(problem, SolveLimits())
    assert report.status == STATUS_OPTIMAL
    assert math.isclose(report.objective, 566276.87, rel_tol=1e-9)
    assert plan.mu == (1, 0, 0, 0)
    assert validate_plan(problem, plan).valid


def test_bruteforce_shutdown_beats_migration_cost(cal):
    # all three xApps on the optional server; moving them and powering it
    # down saves more idle energy than the migration spends
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (0, 3)}, initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr"), cal)
    plan, report = solve_bruteforce(problem, SolveLimits())
    assert report.status == STATUS_OPTIMAL
    assert plan.mu == (1, 0)
    o_s2 = sum(plan.x["A"][1][t] for t in range(2) if t != 1)
    assert o_s2 == 3


def test_bruteforce_single_idle_server(cal):
    state = ClusterState(servers=make_servers(1),
                         initial_counts={"A": (0,)}, initial_active=(1,))
    problem = build_problem(state, make_params("sm-mr"), cal)
    plan, report = solve_bruteforce(problem, SolveLimits())
    assert report.status == STATUS_OPTIMAL
    assert math.isclose(report.objective, 432000.0, rel_tol=1e-9)
    assert plan.mu == (1,)


def test_bruteforce_capacity_infeasible(cal):
    servers = [s.__class__(id="s1", optional_flag=False, cpu_cap=1.0,
                           mem_cap=1.0, disk_cap=1.0)
               for s in make_servers(1)]
    state = ClusterState(servers=servers, initial_counts={"A": (4,)},
                         initial_active=(1,))
    problem = build_problem(state, make_params("sm-mr"), cal)
    plan, report = solve_bruteforce(problem, SolveLimits())
    assert plan is None
    assert report.status == STATUS_INFEASIBLE


def test_bruteforce_refuses_oversize(cal, low_load_state, low_load_params,
                                    monkeypatch):
    problem = build_problem(low_load_state, low_load_params, cal)
    monkeypatch.setattr(bruteforce, "EVAL_CAP", 10)
    with pytest.raises(SearchSpaceError, match=r"\d"):
        solve_bruteforce(problem, SolveLimits())


# branch and bound

def test_bnb_matches_oracle_low_load(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan, report = solve_bnb(problem, SolveLimits())
    assert report.status == STATUS_OPTIMAL
    assert math.isclose(report.objective, 566276.87, rel_tol=1e-9)
    assert report.mip_gap <= 1e-9
    assert report.lower_bound <= report.objective * (1 + 1e-9)
    assert validate_plan(problem, plan).valid


def test_bnb_sdl_population_infeasible(cal):
    state = ClusterState(servers=make_servers(4, n_mandatory=1),
                         initial_counts={"A": (16, 15, 15, 15)},
                         initial_active=(1, 1, 1, 1))
    problem = build_problem(state, make_params("sdl"), cal)
    for solver in (solve_bnb, solve_bruteforce, solve_greedy):
        plan, report = solver(problem, SolveLimits())
        assert plan is None
        assert report.status == STATUS_INFEASIBLE
        assert "(21)" in report.detail


def test_bnb_time_limit_keeps_incumbent(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan, report = solve_bnb(problem, SolveLimits(time_limit=0.0))
    assert report.status == STATUS_TIME
    assert plan is not None
    assert validate_plan(problem, plan).valid
    # the bound is still certified; on an easy instance it may even be tight
    assert report.lower_bound <= report.objective * (1 + 1e-9)
    expected_gap = max(0.0, report.objective - report.lower_bound) / report.objective
    assert math.isclose(report.mip_gap, expected_gap, rel_tol=1e-9, abs_tol=1e-12)


def test_bnb_gap_target(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan, report = solve_bnb(problem, SolveLimits(gap_target=0.9))
    assert report.status in ("gap_reached", "optimal")
    assert report.mip_gap <= 0.9 + 1e-12
    assert plan is not None


def test_bnb_trace_monotone(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    _, report = solve_bnb(problem, SolveLimits())
    incs = [v for kind, _, v in report.trace if kind == "incumbent"]
    bounds = [v for kind, _, v in report.trace if kind == "bound"]
    assert incs and bounds
    for a, b in zip(incs, incs[1:]):
        assert b <= a * (1 + 1e-9)
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    assert bounds[-1] <= incs[-1] * (1 + 1e-9)


# draw 8 of `make_random_scenario.py --servers 4 --classes 3 --total 40
# --deploys 3`: the root LP's bound is already within 1 % of greedy's seed
MEDIUM_SEED_8 = {
    "classes": [{"id": "A", "msg_period": 1.0, "msg_size": 100.0},
                {"id": "C", "msg_period": 1.0, "msg_size": 100000.0},
                {"id": "D", "msg_period": 0.1, "msg_size": 100000.0}],
    "initial_counts": {"A": [2, 1, 3, 5], "C": [2, 3, 1, 3],
                       "D": [2, 3, 10, 1]},
    "params": {"state_size": 1000000.0, "strategy": "sdl"},
    "servers": [
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s1", "mem_cap": 125.0,
         "optional": False},
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s2", "mem_cap": 125.0,
         "optional": False},
        {"cpu_cap": 128.0, "disk_cap": 250.0, "id": "s3", "mem_cap": 64.0,
         "optional": True},
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s4", "mem_cap": 125.0,
         "optional": True}],
}


def test_bnb_stops_at_the_first_node_within_the_gap(cal):
    # the gap is checked at every node, so the solve stops at the root
    scen = parse_scenario(MEDIUM_SEED_8)
    problem = build_problem(scen.state, scen.params, cal)
    plan, report = solve_bnb(problem, SolveLimits(gap_target=0.01))
    assert report.status == STATUS_GAP
    assert report.nodes_explored == 1
    assert report.mip_gap <= 0.01
    assert validate_plan(problem, plan).valid


# draw 16 of the same family: under depth-first search the floor stayed at
# the oldest sibling's bound, and the solve ran 45,757 nodes to optimal
MEDIUM_SEED_16 = {
    "classes": [{"id": "B", "msg_period": 0.1, "msg_size": 100.0},
                {"id": "C", "msg_period": 1.0, "msg_size": 100000.0},
                {"id": "D", "msg_period": 0.1, "msg_size": 100000.0}],
    "initial_counts": {"B": [3, 3, 5, 2], "C": [7, 1, 3, 4],
                       "D": [5, 0, 3, 2]},
    "params": {"state_size": 10000000.0, "strategy": "sm-mr"},
    "servers": [
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s1", "mem_cap": 125.0,
         "optional": False},
        {"cpu_cap": 128.0, "disk_cap": 250.0, "id": "s2", "mem_cap": 64.0,
         "optional": True},
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s3", "mem_cap": 125.0,
         "optional": True},
        {"cpu_cap": 128.0, "disk_cap": 250.0, "id": "s4", "mem_cap": 64.0,
         "optional": True}],
}


def _parsed(doc):
    scen = parse_scenario(doc)
    return scen.state, scen.params


@pytest.mark.parametrize("make, most", [
    (lambda cal: build_problem(*_parsed(MEDIUM_SEED_16), cal), 300),
    # depth-first search took 33,855 nodes, all the way to optimal
    (lambda cal: _scale_problem(cal, 120), 3000),
], ids=["medium-16", "scale-120"])
def test_best_bound_search_meets_the_gap_target(cal, make, most):
    # best-bound search pops the weakest open box first, so the floor rises
    # as the search goes and a 1 % target is met long before optimality
    problem = make(cal)
    plan, report = solve_bnb(problem,
                             SolveLimits(time_limit=60.0, gap_target=0.01))
    assert report.status == STATUS_GAP
    assert report.mip_gap <= 0.01
    assert report.nodes_explored <= most
    assert validate_plan(problem, plan).valid


class _PopClock:
    """A clock for `bnb.time` that reads 0 at the solve's start and until
    `k` nodes have been popped from the search heap, and past any deadline
    after that."""

    def __init__(self, k):
        self.k, self.pops, self.started = k, 0, False

    def perf_counter(self):
        if not self.started:
            self.started = True
            return 0.0
        return 0.0 if self.pops < self.k else 1e9

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=30))
def test_bnb_time_stop_floor_is_certified(cal, seed, k):
    # a solve stopped at its deadline after k pops reports the heap top's
    # floor: at most the optimum and the incumbent, and the last bound event;
    # the first draw whose whole search pops more than k nodes is stopped
    rng = random.Random(seed)
    while True:
        problem = build_problem(*random_instance(rng), cal)
        if solve_bnb(problem, SolveLimits())[1].nodes_explored > k:
            break
    _, exact = solve_bruteforce(problem, SolveLimits())
    clock = _PopClock(k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bnb, "time", clock)
        mp.setattr(bnb, "heapq", SimpleNamespace(heappush=heapq.heappush,
                                                 heappop=clock.heappop))
        _, report = solve_bnb(problem, SolveLimits(time_limit=1.0))
    assert report.status == STATUS_TIME
    assert clock.pops == k
    if exact.status == STATUS_OPTIMAL:
        assert report.lower_bound <= exact.objective * (1 + 1e-9)
    if report.objective is not None:
        assert report.lower_bound <= report.objective * (1 + 1e-9)
    bounds = [v for kind, _, v in report.trace if kind == "bound"]
    assert bounds[-1] == report.lower_bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([0.002, 0.05, 0.2]))
def test_bnb_gap_stop_is_certified(cal, seed, target):
    # a gap-target solve stops on a prefix of the gap-0 search, with a floor
    # that bounds the optimum and a gap within the target
    problem = build_problem(*random_instance(random.Random(seed)), cal)
    _, exact = solve_bnb(problem, SolveLimits(time_limit=60.0))
    plan, report = solve_bnb(problem,
                             SolveLimits(time_limit=60.0, gap_target=target))
    assert report.nodes_explored <= exact.nodes_explored
    if exact.status != STATUS_OPTIMAL:
        assert report.status == exact.status
        return
    assert report.status in (STATUS_OPTIMAL, STATUS_GAP)
    assert report.lower_bound <= exact.objective * (1 + 1e-9)
    assert report.mip_gap <= target
    assert validate_plan(problem, plan).valid
    # bound events are appended only when the floor rises, and the last is
    # the reported bound
    bounds = [v for kind, _, v in report.trace if kind == "bound"]
    assert bounds == sorted(bounds)
    assert bounds[-1] == report.lower_bound


# greedy heuristic

def test_greedy_low_load_single_server(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan, report = solve_greedy(problem)
    assert sum(plan.mu) == 1
    assert validate_plan(problem, plan).valid
    assert report.lower_bound == -math.inf
    assert report.mip_gap == math.inf


def test_greedy_capacity_infeasible(cal):
    servers = make_servers(2, cpu=2.0)  # 5 xApps need 0.1 + 5*0.47 = 2.45 CPU
    state = ClusterState(servers=servers, initial_counts={"A": (5, 5)},
                         initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr"), cal)
    plan, report = solve_greedy(problem)
    assert plan is None
    # a heuristic that finds nothing has not proven infeasibility
    assert report.status == STATUS_NO_PLAN
    assert "(18)" in report.detail


@pytest.mark.parametrize("strategy", ["sm-mr", "sdl"])
def test_greedy_names_the_window_that_stops_it(cal, strategy):
    # the 12 deploys fit by capacity, but best fit stacks them on one server,
    # whose instantiation window (0.08 s * 12 + 4.27 s) blows the 5 s slot
    state = ClusterState(servers=make_servers(3),
                         initial_counts={"A": (2, 1, 1)},
                         initial_active=(1, 1, 1), pending_deploys={"A": 12})
    problem = build_problem(state, make_params(strategy, slot=5.0), cal)
    plan, report = solve_greedy(problem)
    assert plan is None
    assert report.status == STATUS_NO_PLAN
    assert report.detail.startswith("window")
    assert "(18)" not in report.detail
    _, exact = solve_bnb(problem, SolveLimits())
    assert exact.status == STATUS_OPTIMAL


def test_greedy_never_beats_bnb(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    gplan, greport = solve_greedy(problem)
    bplan, breport = solve_bnb(problem, SolveLimits())
    assert greport.objective >= breport.objective * (1 - 1e-9)


# a nonzero stateful downtime intercept b_d is charged once per migrating
# class, so draining s2 (one A, one B) costs 2 * (10.55 + b_d) seconds

@pytest.mark.parametrize("b_d, td_max, mu, energy", [
    (150.0, 300.0, (1, 1), 935676.0),  # 321.1 s: s2 must stay on
    (-5.0, 12.0, (1, 0), 507005.158),  # 11.1 s: s2 drains
])
def test_solvers_drain_with_downtime_intercept(b_d, td_max, mu, energy):
    cal = load_calibration({"kpi": {"sm-mr": {"1.0": {
        "delta_d": 10.55, "b_d": b_d, "delta_m": 10.55, "b_m": 0.0}}}})
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (0, 1), "B": (0, 1)},
                         initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr", td_max=td_max), cal)
    for solver in (solve_bruteforce, solve_bnb, solve_greedy):
        plan, report = solver(problem, SolveLimits())
        assert plan.mu == mu, solver.__name__
        assert math.isclose(report.objective, energy, rel_tol=1e-9)
        assert validate_plan(problem, plan).valid


def _negative_b_d_problem(servers, counts, deploys=None):
    # sm-mr at 100 MB with b_d = -20 s and a 12 s downtime budget
    cal = load_calibration({"kpi": {"sm-mr": {"100.0": {
        "delta_d": 10.55, "b_d": -20.0, "delta_m": 10.55, "b_m": 0.0}}}})
    state = ClusterState(servers=servers, initial_counts=counts,
                         initial_active=(1,) * len(servers),
                         pending_deploys=deploys or {})
    return build_problem(state, make_params("sm-mr", rho_mb=100.0,
                                            td_max=12.0), cal)


def _found_b_d_problem():
    return _negative_b_d_problem(
        make_servers(3, n_mandatory=2, cpu=64.0, mem=64.0),
        {"D": (1, 0, 2), "A": (2, 0, 0)})


def _seed_70_b_d_problem():
    # draw 70 of scripts/make_random_scenario.py (3 servers, 2 classes)
    servers = (ServerSpec("s1", False, 128.0, 125.0, 250.0),
               ServerSpec("s2", True, 64.0, 64.0, 250.0),
               ServerSpec("s3", False, 64.0, 125.0, 250.0))
    return _negative_b_d_problem(servers, {"A": (1, 0, 1), "B": (1, 2, 1)},
                                 {"A": 1})


# with b_d < 0 the LP row delta_d * sum(o) <= T cut off the optimum, and bnb
# reported 1070284.513 J and 1141802.2165 J as optimal
@pytest.mark.parametrize("make, energy", [
    (_found_b_d_problem, 1070110.86),
    (_seed_70_b_d_problem, 1141651.08),
], ids=["found", "seed-70"])
def test_bnb_downtime_row_relaxes_negative_intercept(make, energy):
    problem = make()
    _, exact = solve_bruteforce(problem, SolveLimits())
    _, report = solve_bnb(problem, SolveLimits(time_limit=60.0))
    assert exact.status == report.status == STATUS_OPTIMAL
    assert exact.objective == pytest.approx(energy, rel=1e-9)
    assert report.objective == pytest.approx(exact.objective, rel=1e-9)


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A known defect (ROADMAP item 4): with a negative migration intercept the
# LP's window delta_m * o lies above the true max(0, delta_m * o + b_m), so
# bnb prunes the optimum and reports 1163571.4015 J as "optimal".  Seeds
# 0-39 give 7 such draws.  The fix for item 4 flips this test.
@pytest.mark.xfail(strict=True, reason="LP window above the floored window "
                   "when b_m < 0 (ROADMAP item 4)")
def test_bnb_matches_oracle_with_negative_migration_intercept():
    draws = _script("make_random_scenario")
    rng = random.Random(2)
    args = SimpleNamespace(servers=3, classes=2, total=6, strategy="sm-mr",
                           deploys=1)
    doc = draws.draw(rng, args)
    while not draws.baseline_ok(doc):
        doc = draws.draw(rng, args)
    rho = str(doc["params"]["state_size"] / 1e6)
    cal = load_calibration({"kpi": {"sm-mr": {rho: {
        "delta_d": 10.55, "b_d": 0.0, "delta_m": 10.55, "b_m": -8.0}}}})
    scen = parse_scenario(doc)
    problem = build_problem(scen.state, scen.params, cal)
    _, exact = solve_bruteforce(problem, SolveLimits())
    _, report = solve_bnb(problem, SolveLimits(time_limit=60.0))
    assert exact.objective == pytest.approx(1163532.922, rel=1e-9)
    assert report.status == STATUS_OPTIMAL
    assert report.objective == pytest.approx(exact.objective, rel=1e-9)


def _no_seed_problem(cal):
    # greedy finds no plan here, but bruteforce finds one
    state = ClusterState(servers=make_servers(2, n_mandatory=2, cpu=10.0),
                         initial_counts={"D": (1, 3)}, initial_active=(1, 1))
    return build_problem(state, make_params("sdl"), cal)


def test_bnb_without_greedy_seed_finds_the_optimum(cal):
    # without a seed the prune threshold was inf - inf = NaN: no candidate
    # was ever accepted and bnb reported "infeasible" after 25 nodes
    problem = _no_seed_problem(cal)
    assert solve_greedy(problem)[0] is None
    _, exact = solve_bruteforce(problem, SolveLimits())
    plan, report = solve_bnb(problem, SolveLimits())
    assert exact.status == report.status == STATUS_OPTIMAL
    assert exact.objective == pytest.approx(1245169.3184, rel=1e-12)
    assert report.objective == pytest.approx(exact.objective, rel=1e-9)
    assert validate_plan(problem, plan).valid


def test_bnb_without_greedy_seed_matches_oracle_sample(cal):
    # the first 10 draws on which greedy finds no plan; 3 of them have a
    # feasible plan
    rng = random.Random(20261020)
    kept = 0
    while kept < 10:
        classes = rng.sample("ABCD", rng.randint(1, 2))
        servers = make_servers(2, n_mandatory=2,
                               cpu=float(rng.choice([8, 10, 12])))
        counts = {c: (rng.randint(0, 4), rng.randint(0, 4)) for c in classes}
        deploys = {classes[0]: rng.randint(0, 2)}
        state = ClusterState(servers=servers, initial_counts=counts,
                             initial_active=(1, 1), pending_deploys=deploys)
        strategy = rng.choice(["sdl", "sm-mr", "sm-md"])
        problem = build_problem(state, make_params(strategy), cal)
        if solve_greedy(problem)[0] is not None:
            continue
        kept += 1
        _, exact = solve_bruteforce(problem, SolveLimits())
        _, report = solve_bnb(problem, SolveLimits())
        assert report.status == exact.status
        if exact.status == STATUS_OPTIMAL:
            assert report.objective == pytest.approx(exact.objective,
                                                     rel=1e-9)


# `make_random_scenario.py --seed 129`: every optimal plan sends the A out
# of s2, which stays on (ROADMAP item 14).  `model.server_energy` bills a
# server's window at its initial hosting and the rest of the slot at its
# final hosting, so a migrated xApp is billed T + W_src - W_dst: moving the
# A opens a window on s2, which then bills the B arriving from s3 for less
# than the whole slot
SEED_129 = {
    "classes": [{"id": "A", "msg_period": 1.0, "msg_size": 100.0},
                {"id": "B", "msg_period": 0.1, "msg_size": 100.0}],
    "initial_counts": {"A": [0, 1, 0], "B": [0, 0, 1]},
    "params": {"state_size": 1000000.0, "strategy": "sdl"},
    "servers": [
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s1", "mem_cap": 64.0,
         "optional": False},
        {"cpu_cap": 64.0, "disk_cap": 250.0, "id": "s2", "mem_cap": 125.0,
         "optional": False},
        {"cpu_cap": 128.0, "disk_cap": 250.0, "id": "s3", "mem_cap": 125.0,
         "optional": True}],
}


def test_optimum_sends_xapps_out_of_a_server_that_stays_on(cal):
    scen = parse_scenario(SEED_129)
    problem = build_problem(scen.state, scen.params, cal)
    for solver in (solve_bnb, solve_bruteforce):
        plan, report = solver(problem, SolveLimits())
        assert report.status == STATUS_OPTIMAL
        assert report.objective == pytest.approx(1093844.9205, rel=1e-12)
        assert plan.mu == (1, 1, 0)

    # every plan, with whether a server that stays on sends anything
    plans = []
    for mu in ((1, 1, 0), (1, 1, 1)):
        on = [s for s in range(3) if mu[s]]
        for a, b in itertools.product(on, on):
            x = {cls: [[0] * 4 for _ in range(4)] for cls in "AB"}
            x["A"][1][a] = x["B"][2][b] = 1
            plan = MigrationPlan(x=x, mu=mu)
            if validate_plan(problem, plan).valid:
                churn = bool(mu[1] and a != 1 or mu[2] and b != 2)
                plans.append((objective_eval(problem, plan), churn, a, b))
    best = min(plans)[0]
    assert best == pytest.approx(1093844.9205, rel=1e-12)
    optima = [p for p in plans if p[0] <= best * (1 + 1e-12)]
    assert optima == [(best, True, 0, 1)]  # s2 sends its A to s1
    # the best plan in which no powered server sends anything: the B moves
    # to s2 (or, at the same energy, to s1) and the A stays on s2
    calm = min(p for p in plans if not p[1])
    assert calm == (pytest.approx(1093901.688, rel=1e-12), False, 1, 0)
    assert (calm[0], False, 1, 1) in plans


def test_bnb_uses_state_size_entry_of_backend_calibration():
    # a kpi.sdl entry at the scenario's state size overrides the wildcard
    # row for migration windows; bnb must bound with the same entry
    cal = load_calibration({"kpi": {"sdl": {"1.0": {
        "delta_d": 0.0, "b_d": 0.0, "delta_m": 0.0, "b_m": 0.0}}}})
    state = ClusterState(servers=make_servers(3, n_mandatory=2, cpu=64.0,
                                              mem=64.0),
                         initial_counts={"A": (1, 1, 1)},
                         initial_active=(1, 1, 1), pending_deploys={"A": 1})
    problem = build_problem(state, make_params("sdl"), cal)
    _, bf = solve_bruteforce(problem, SolveLimits())
    _, bb = solve_bnb(problem, SolveLimits())
    assert bb.status == bf.status == STATUS_OPTIMAL
    assert math.isclose(bb.objective, bf.objective, rel_tol=1e-9)


def test_bnb_lp_keeps_box_within_window_tolerance(cal):
    # draining s2 (5 sm-md migrations at 20.28 s) takes a 101.4 s window,
    # above the slot by less than the shared tolerance; the validator accepts
    # that plan, so the LP of the box holding it must bound its energy
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (0, 5)}, initial_active=(1, 1))
    problem = build_problem(
        state, make_params("sm-md", slot=101.4 / (1 + 5e-10)), cal)
    drained = plan_from_aggregates(problem, (1, 0), {"A": [0, 5]},
                                   {"A": [5, 0]}, {"A": [0, 0]})
    assert validate_plan(problem, drained).valid

    # the off branch for s2, bounding (o1 o2 | m1 m2 | d1 d2 | mu1 mu2)
    off = [0, 5, 0, 0, 0, 0, 1, 0], [0, 5, 5, 0, 0, 0, 1, 0]
    value, _ = bnb._solve_lp(bnb._context(problem), *off)
    assert value is not None
    assert value <= objective_eval(problem, drained) * (1 + 1e-9)


def test_bnb_lp_keeps_box_within_downtime_tolerance():
    # draining s2 (5 sm-mr migrations at 100 s each) takes 500 s of downtime,
    # above the budget by less than the shared tolerance; the validator
    # accepts that plan, so the LP of the box holding it must bound its energy
    cal = load_calibration({"kpi": {"sm-mr": {"1.0": {
        "delta_d": 100.0, "b_d": 0.0, "delta_m": 1.0, "b_m": 0.0}}}})
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (0, 5)}, initial_active=(1, 1))
    problem = build_problem(
        state, make_params("sm-mr", td_max=500.0 / (1 + 5e-10)), cal)
    drained = plan_from_aggregates(problem, (1, 0), {"A": [0, 5]},
                                   {"A": [5, 0]}, {"A": [0, 0]})
    assert validate_plan(problem, drained).valid
    energy = objective_eval(problem, drained)
    assert energy == pytest.approx(494515.1, rel=1e-9)

    off = [0, 5, 0, 0, 0, 0, 1, 0], [0, 5, 5, 0, 0, 0, 1, 0]
    value, _ = bnb._solve_lp(bnb._context(problem), *off)
    assert value is not None
    assert value <= energy * (1 + 1e-9)


def test_slot_prune_closes_a_box_without_an_lp(cal, monkeypatch):
    # one sm-mr migration takes 10.55 s, over the 10 s slot: a box that
    # forces one out of a server closes before its LP is sent
    state = ClusterState(servers=make_servers(3),
                         initial_counts={"A": (3, 3, 2)},
                         initial_active=(1, 1, 1))
    problem = build_problem(state, make_params("sm-mr", slot=10.0), cal)
    live, solve_lp, lps, pruned = bnb.linprog, bnb._solve_lp, [], []

    def counted(lp):
        lps.append(None)
        return live(lp)

    def watched(ctx, lo, hi):
        before = len(lps)
        result = solve_lp(ctx, lo, hi)
        if len(lps) == before:
            pruned.append(result)
            # some server's lowest window in the box blows the slot
            assert any(source_window(problem, [lo[i] for i in o_s],
                                     [lo[i] for i in d_s]) > 10.0
                       for o_s, _, d_s, _ in ctx.at)
        return result

    monkeypatch.setattr(bnb, "linprog", counted)
    monkeypatch.setattr(bnb, "_solve_lp", watched)
    _, report = solve_bnb(problem, SolveLimits())
    assert pruned and set(pruned) == {(None, None)}
    _, exact = solve_bruteforce(problem, SolveLimits())
    assert report.status == exact.status == STATUS_OPTIMAL
    assert report.objective == pytest.approx(exact.objective, rel=1e-9)


@pytest.mark.parametrize("b_m", [2.0, 30.0])
def test_bnb_prices_a_positive_engine_intercept(b_m):
    # a positive sm-mr duration intercept b_m runs the migration engine for
    # b_m more seconds per class leaving a server: the LP prices it through
    # the tm indicator columns, and bnb still finds the oracle's optimum
    cal = load_calibration({"kpi": {"sm-mr": {"1.0": {
        "delta_d": 10.55, "b_d": 0.0, "delta_m": 10.55, "b_m": b_m}}}})
    rng = random.Random(26)
    priced = 0
    for _ in range(12):
        state, _ = random_instance(rng)
        problem = build_problem(state, make_params("sm-mr"), cal)
        priced += bnb._context(problem).use_tm
        _, exact = solve_bruteforce(problem, SolveLimits())
        _, report = solve_bnb(problem, SolveLimits())
        assert report.status == exact.status
        if exact.status == STATUS_OPTIMAL:
            assert report.objective == pytest.approx(exact.objective,
                                                     rel=1e-9)
    assert priced


def _scale_problem(cal, total):
    """The acceptance-criterion-8 family at `total` xApps."""
    spec = SweepSpec(classes=tuple(make_class(c) for c in "ABCD"),
                     dominant_class="A", count_range=(total,),
                     rho_list_mb=(1.0,), nu_list_s=(1.0,),
                     strategies=("sm-md",))
    state = balanced_state(spec.classes, make_servers(4),
                           mix_counts(spec, total))
    return build_problem(state, make_params("sm-md"), cal)


def _small_search_problem(cal):
    # takes the off branch for s2, whose LP is infeasible, and branches on
    # fractional aggregates until integral LP points close every box
    state = ClusterState(servers=make_servers(2, cpu=16.0),
                         initial_counts={"B": (1, 4)}, initial_active=(1, 1),
                         pending_deploys={"B": 1})
    return build_problem(state, make_params("sm-mr"), cal)


def _sdl_search_problem(cal):
    # under sdl the LP carries the tm and ti indicator columns and the
    # engine's overhead share in its capacity rows; the search ends in boxes
    # with every column fixed, each judged as its one point
    state = ClusterState(servers=make_servers(3, cpu=16.0),
                         initial_counts={"D": (1, 0, 2), "A": (0, 4, 0)},
                         initial_active=(1, 1, 1), pending_deploys={"D": 1})
    return build_problem(state, make_params("sdl"), cal)


# The search itself is pinned: a change to the node order, the branching or
# the LP shows here.  A change that alters the search on purpose updates
# these figures and records the new ones in CHANGES.md.
PINNED = [
    (_small_search_problem, 1219896.312, 21),
    (lambda cal: _scale_problem(cal, 116), 3277123.1532, 549),
    (_sdl_search_problem, 1322720.913, 75),
]
PINNED_IDS = ["small", "scale-116", "sdl"]


@pytest.mark.parametrize("make, objective, nodes", PINNED, ids=PINNED_IDS)
def test_bnb_search_is_pinned(cal, make, objective, nodes):
    _, report = solve_bnb(make(cal), SolveLimits(time_limit=120.0))
    assert report.status == STATUS_OPTIMAL
    assert report.objective == pytest.approx(objective, rel=1e-12)
    assert report.nodes_explored == nodes


def test_sdl_pin_puts_indicators_and_share_in_the_lp(cal):
    problem = _sdl_search_problem(cal)
    ctx = bnb._context(problem)
    assert ctx.use_tm and ctx.use_ti
    assert problem.coeffs.overhead["CPU"] > 0


def test_solve_layout_names_every_lp_column_once(cal):
    # the sdl pin carries every block of columns, tm and ti included
    problem = _sdl_search_problem(cal)
    ctx = bnb._context(problem)
    blocks = (ctx.o, ctx.m, ctx.d, ctx.w, ctx.p, ctx.z, ctx.mu, ctx.tm, ctx.ti)
    cols = np.concatenate([np.ravel(b) for b in blocks])
    assert cols.tolist() == list(range(len(ctx.c)))

    # the root box: the staged count, the class's pool and its pending
    # deploys bound outgoing, incoming and deployed on every server
    S = problem.n_servers
    _, hi = bnb._root_box(ctx)
    for k, cls in enumerate(problem.classes):
        staged = problem.staged[cls]
        for s in range(S):
            assert hi[ctx.o[k, s]] == staged[s]
            assert hi[ctx.m[k, s]] == sum(staged[:S])
            assert hi[ctx.d[k, s]] == staged[S]


def _dense(lp):
    """The constraint matrix of the node LP `lp` as a dense array."""
    m = len(lp.rhs)
    a = np.zeros((m, len(lp.c)))
    a[np.repeat(np.arange(m), np.diff(lp.starts)), lp.index] = lp.data
    a[tuple(lp.env_at)] = lp.env
    return a


def _solve_scipy(lp):
    """`lp` solved cold by scipy.optimize.linprog(method="highs")."""
    from scipy import optimize
    a, m = _dense(lp), lp.m_ub
    return optimize.linprog(lp.c, A_ub=a[:m], b_ub=lp.rhs[:m], A_eq=a[m:],
                            b_eq=lp.rhs[m:],
                            bounds=np.column_stack((lp.lb, lp.ub)),
                            method="highs")


def _meets(lp, x, tol=bnb._RESIDUAL_TOL):
    """Whether `x` meets the bounds and rows of `lp` as linprog checks."""
    slack = lp.rhs - _dense(lp) @ x
    return bool(np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
                and np.all(slack[:lp.m_ub] >= -tol)
                and np.all(np.abs(slack[lp.m_ub:]) <= tol))


def _assert_matches_cold(lp, a):
    """The live answer `a` to the node LP `lp` has the status and objective
    of a cold solve, and a point that meets `lp` as built."""
    b = _solve_scipy(lp)
    assert (a.status, a.success) == (b.status, b.success)
    if a.success:
        assert a.fun == pytest.approx(b.fun, rel=1e-9)
        assert _meets(lp, a.x)


LP_CASES = [m for m, _, _ in PINNED] + [lambda cal: _found_b_d_problem()]


@pytest.mark.parametrize("make", LP_CASES, ids=PINNED_IDS + ["negative-b_d"])
def test_lp_backends_agree(cal, make, monkeypatch):
    # every node LP of the search, on the live warm-started model and cold
    # through scipy.optimize.linprog: the same status and objective, and a
    # point that meets the node's LP as built, so a bound, coefficient or
    # right-hand side the live model was not sent shows here.  A warm start
    # may return another optimal vertex, so the points are not compared.
    live, seen = bnb.linprog, []

    def both(lp):
        a = live(lp)
        _assert_matches_cold(lp, a)
        seen.append(a.status)
        return a

    monkeypatch.setattr(bnb, "linprog", both)
    _, report = solve_bnb(make(cal), SolveLimits(time_limit=120.0))
    assert report.status == STATUS_OPTIMAL
    assert seen and 0 in seen


class _RefusingModel:
    """A live HiGHS model that refuses the changeCoeff calls for which
    `refuse()` is true, changing nothing, as a failed push would."""

    def __init__(self, highs, refuse):
        self.highs, self.refuse = highs, refuse

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def changeCoeff(self, *args):
        if self.refuse():
            return bnb._highspy()[0].HighsStatus.kError
        return self.highs.changeCoeff(*args)


@pytest.mark.parametrize("lp_at, call_at", [(0, 0), (3, 1)],
                         ids=["first-lp", "fourth-lp"])
@pytest.mark.parametrize("make", LP_CASES[:3], ids=PINNED_IDS)
def test_refused_push_is_pushed_again(cal, make, lp_at, call_at,
                                      monkeypatch):
    # linprog pushes every column bound, and the envelope coefficients and
    # right-hand sides of the servers whose box changed since its last push.
    # HiGHS refusing one coefficient (call `call_at` of LP `lp_at`) fails
    # that node's LP and marks every server dirty, so no stale value stays
    # in the live model: every later node LP matches a cold solve
    live, load, statuses, calls = bnb.linprog, bnb._load, [], []

    def refuse():
        calls.append(len(statuses))
        return calls[-1] == lp_at and calls.count(lp_at) == call_at + 1

    def checked(lp):
        a = live(lp)
        if len(statuses) == lp_at:
            assert a.status == 4
        else:
            _assert_matches_cold(lp, a)
        statuses.append(a.status)
        return a

    monkeypatch.setattr(bnb, "_load", lambda core, options, lp:
                        _RefusingModel(load(core, options, lp), refuse))
    monkeypatch.setattr(bnb, "linprog", checked)
    _, report = solve_bnb(make(cal), SolveLimits(time_limit=120.0))
    assert report.status == STATUS_OPTIMAL
    assert 0 in statuses[lp_at + 1:]


def test_server_boxes_keep_one_entry_per_server(cal, monkeypatch):
    # _solve_lp keeps the last box it saw per server, not every box
    live, solves = bnb.linprog, []

    def kept(lp):
        solves.append(lp)
        return live(lp)

    monkeypatch.setattr(bnb, "linprog", kept)
    problem = _scale_problem(cal, 116)
    solve_bnb(problem, SolveLimits(time_limit=120.0))
    assert len(solves) > problem.n_servers
    assert len(solves[-1].boxes) <= problem.n_servers


def test_solves_do_not_leak_into_each_other(cal, monkeypatch):
    # each solve owns its live LP model: solving another problem in between
    # leaves the search of the first as it was
    live, calls = bnb.linprog, []

    def counted(lp):
        calls.append(None)
        return live(lp)

    monkeypatch.setattr(bnb, "linprog", counted)

    def run(make):
        calls.clear()
        _, report = solve_bnb(make(cal), SolveLimits(time_limit=120.0))
        return (report.status, repr(report.objective), report.nodes_explored,
                len(calls))

    first = run(_sdl_search_problem)
    run(_small_search_problem)
    assert run(_sdl_search_problem) == first


def _failing_lp(real, fail_at):
    """`real`, except that call number `fail_at` (every call for None)
    fails as a numerical failure would."""
    calls = []

    def lp(*args, **kwargs):
        calls.append(None)
        if fail_at is None or len(calls) - 1 == fail_at:
            return SimpleNamespace(status=4, success=False, fun=None, x=None)
        return real(*args, **kwargs)

    return lp


# greedy's seed is above the optimum here; failing the root LP or the sixth
# LP (call 5) used to prune the optimum's box and still report "optimal";
# "rejected-model" has HiGHS refuse the node LP (an infinite coefficient,
# so `_load` returns None), every LP of the solve fails, and the solve loads
# the model only once; "residual-check" moves the right-hand side of an
# equality row that no node rewrites after the load, so every point HiGHS
# returns fails linprog's residual check
@pytest.mark.parametrize("fail_at", [0, 5, None, "load", "residual"],
                         ids=["root", "inner", "every", "rejected-model",
                              "residual-check"])
def test_failed_lp_never_closes_a_node(cal, fail_at, monkeypatch):
    state = ClusterState(
        servers=make_servers(3, n_mandatory=2, cpu=64.0, mem=64.0),
        initial_counts={"A": (1, 1, 3)}, initial_active=(1, 1, 1),
        pending_deploys={"A": 1})
    problem = build_problem(state, make_params("sdl"), cal)
    _, exact = solve_bruteforce(problem, SolveLimits())
    seed, _ = solve_greedy(problem)
    assert seed.energy_total > exact.objective * (1 + 1e-9)

    live, load, statuses, loads = bnb.linprog, bnb._load, [], []
    if fail_at in ("load", "residual"):
        def spoiled(core, options, lp):
            if fail_at == "load":
                lp.data[0] = math.inf
            loads.append(load(core, options, lp))
            if fail_at == "residual":
                assert lp.rhs.size - 1 not in lp.node_rows
                lp.rhs[-1] += 1.0
            return loads[-1]
        monkeypatch.setattr(bnb, "_load", spoiled)
    else:
        live = _failing_lp(live, fail_at)

    def recorded(lp):
        res = live(lp)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(bnb, "linprog", recorded)
    _, report = solve_bnb(problem, SolveLimits(time_limit=60.0))
    assert report.status == STATUS_OPTIMAL
    assert report.objective == pytest.approx(exact.objective, rel=1e-9)
    if fail_at in (None, "load"):
        assert statuses and set(statuses) == {4}
    if fail_at == "residual":
        # HiGHS solves the rows as loaded: it still proves boxes infeasible,
        # but no optimal point it returns passes
        assert 4 in statuses and 0 not in statuses
    if fail_at == "load":
        # the rejection is remembered: no node loads the model again
        assert loads == [None]


def test_import_leaves_scipy_unloaded():
    # only a node LP needs scipy; importing the package and loading the
    # calibration must not pay for it
    code = ("import sys, ricplan; ricplan.default_calibration(); "
            "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_tracer_hooks_resolve():
    # perfbench's traced run wraps these names; one that is gone turns the
    # metrics of its whole layer null
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [(module, attr) for module, attr, _, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


# randomized cross-checks

def random_instance(rng):
    n_classes = rng.randint(1, 2)
    class_ids = ["A", "B", "C", "D"]
    rng.shuffle(class_ids)
    chosen = class_ids[:n_classes]
    strategy = rng.choice(["sdl", "sm-mr", "sm-md"])
    rho = 1.0 if strategy == "sdl" else rng.choice([1.0, 10.0, 100.0])
    servers = make_servers(3, n_mandatory=rng.randint(1, 2),
                           cpu=rng.choice([64.0, 128.0]),
                           mem=rng.choice([64.0, 125.0]))
    budget = rng.randint(0, 6)
    counts = {}
    for cls in chosen:
        row = [0, 0, 0]
        for _ in range(rng.randint(0, budget)):
            row[rng.randint(0, 2)] += 1
        counts[cls] = tuple(row)
    deploys = {chosen[0]: rng.randint(0, 1)} if rng.random() < 0.3 else {}
    state = ClusterState(servers=servers, initial_counts=counts,
                         initial_active=(1, 1, 1), pending_deploys=deploys)
    params = make_params(strategy, rho_mb=rho)
    return state, params


def test_solver_agreement_sample(cal):
    rng = random.Random(20240817)
    checked = 0
    while checked < 25:
        state, params = random_instance(rng)
        problem = build_problem(state, params, cal)
        bf_plan, bf = solve_bruteforce(problem, SolveLimits())
        bb_plan, bb = solve_bnb(problem, SolveLimits())
        assert bf.status == bb.status
        if bf.status != STATUS_OPTIMAL:
            continue
        assert math.isclose(bf.objective, bb.objective, rel_tol=1e-6)
        for problem_plan in (bf_plan, bb_plan):
            assert validate_plan(problem, problem_plan).valid
        g_plan, g = solve_greedy(problem)
        if g_plan is not None:
            assert g.objective >= bf.objective * (1 - 1e-9)
        checked += 1


def test_solvers_deterministic(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    for solver in (lambda p: solve_bruteforce(p, SolveLimits()),
                   lambda p: solve_bnb(p, SolveLimits()),
                   solve_greedy):
        p1, r1 = solver(problem)
        p2, r2 = solver(problem)
        assert p1.x == p2.x
        assert p1.mu == p2.mu
        assert r1.objective == r2.objective
        assert r1.nodes_explored == r2.nodes_explored
