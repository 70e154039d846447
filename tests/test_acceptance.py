"""Acceptance gate: one check per release criterion, one verdict line each.

Run with plain pytest; each test prints a PASS/FAIL line through the capture
so the gate is readable straight off the terminal.
"""

import json
import math
import random
import time

from ricplan import (
    ClusterState,
    MigrationPlan,
    ScenarioParams,
    ServerSpec,
    SolveLimits,
    SweepSpec,
    XAppClass,
    build_problem,
    default_calibration,
    feasibility_sweep,
    identity_plan,
    load_calibration,
    mix_counts,
    balanced_state,
    run_timeslot,
    solve_bnb,
    solve_bruteforce,
    solve_greedy,
    validate_plan,
)
from ricplan import model as M
from ricplan.calibration import lookup
from ricplan.cli import main as cli_main
from tests.conftest import make_class, make_params, make_servers

CAL = default_calibration()


def _checker():
    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    return failures, check


def _verdict(capsys, num, name, failures, note=""):
    ok = not failures
    with capsys.disabled():
        line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
        if note:
            line += f" ({note})"
        print(line, flush=True)
    assert ok, f"criterion {num}: {failures}"


def _close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def test_criterion_1_calibration_fidelity(capsys):
    failures, check = _checker()
    t0 = time.perf_counter()
    spots = [
        (lookup(CAL, "server_idle", "E"), 120.0, "q_E"),
        (lookup(CAL, "sm_overhead", "sm-md", "E"), 27.56,
         "b_E sm-md"),
        (lookup(CAL, "kpi", "sm-mr", 10.0, "delta_d"),
         11.73, "delta_D sm-mr rho=10"),
        (lookup(CAL, "sigma", "A", 1.0, 1.0), 16.62, "sigma_A"),
        (lookup(CAL, "xapp_load", "B", "E"), 16.48, "p_E,B"),
    ]
    for got, want, name in spots:
        check(got == want, f"{name}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    check(elapsed < 1.0, f"took {elapsed:.3f} s")
    _verdict(capsys, 1, "calibration fidelity", failures)


def test_criterion_2_formula_examples(capsys, low_load_state, low_load_params):
    failures, check = _checker()
    t0 = time.perf_counter()
    p_mr = make_params("sm-mr")
    p_sdl = make_params("sdl")
    cases = [
        (M.traffic_load(make_class("A"), 10), 1000.0, "traffic A x10"),
        (M.traffic_load(make_class("D"), 1), 1.0e6, "traffic D x1"),
        (M.sm_downtime("sm-mr", 20, CAL, 1.0), 211.0, "downtime mr 20"),
        (M.sm_downtime("sm-md", 3, CAL, 10.0), 19.47, "downtime md 3"),
        (M.migration_duration("sm-md", 5, CAL, 1.0), 101.4, "duration md 5"),
        (M.migration_duration("sdl", 10, CAL), 5.07, "duration sdl 10"),
        (M.migration_duration("sm-mr", 2, CAL, 100.0), 46.6, "duration mr 2"),
        (M.instantiation_time(10, CAL), 5.07, "instantiation 10"),
        (M.instantiation_time(1, CAL), 4.35, "instantiation 1"),
        (M.defrag_downtime({"A": 50}, CAL, 1.0, 1.0), 0.831, "defrag A50"),
        (M.defrag_downtime({"C": 30, "D": 30}, CAL, 1.0, 1.0), 0.5799,
         "defrag C30 D30"),
        (M.sdl_feasible({"A": 60}, p_sdl, CAL).defrag_downtime, 0.9972,
         "defrag at 60"),
        (M.sdl_feasible({"A": 61}, p_sdl, CAL).defrag_downtime, 1.01382,
         "defrag at 61"),
        (M.strategy_overhead("sdl", "CPU", {"A": 10}, 4, CAL, True), 1.33,
         "backend CPU share"),
        (M.strategy_overhead("sm-md", "CPU", {"A": 10}, 4, CAL, True), 0.76,
         "engine CPU"),
        (M.sm_migration_energy("sm-mr", [211.0], CAL), 3770.57, "engine E mr"),
        (M.sm_migration_energy("sm-md", 100.0, CAL), 2756.0, "engine E md"),
        (M.sdl_energy_per_server({"A": 40}, 4, 3600.0, CAL), 22635.0,
         "backend E share"),
        (M.sdl_energy_per_server({c: 0 for c in "ABCD"}, 4, 3600.0, CAL),
         127467.0, "backend idles with 0 xApps"),
        (M.server_energy({}, {}, {"A": 1}, {}, {"A": 1}, 1, {"A": 1}, 1,
                         p_mr, CAL), 444348.0, "steady server"),
        (M.server_energy({"A": 2}, {}, {}, {}, {"A": 2}, 0, {"A": 2}, 1,
                         p_mr, CAL), 3053.803, "draining server"),
        (M.server_resources(make_servers(1)[0], True, {"A": 10}, "sdl", CAL,
                            total_counts={"A": 10}, server_count=4,
                            participates=True).cpu, 6.13, "hosting CPU"),
        (M.server_resources(make_servers(1)[0], True, {"B": 2}, "sm-mr", CAL,
                            total_counts={"B": 2}, server_count=4,
                            participates=False).cpu, 5.82, "plain CPU"),
    ]
    idle_state = ClusterState(servers=make_servers(1),
                              initial_counts={"A": (0,)}, initial_active=(1,))
    idle_problem = build_problem(idle_state, p_mr, CAL)
    cases.append((M.cluster_energy(identity_plan(idle_problem), idle_state,
                                   p_mr, CAL).total, 432000.0, "idle cluster"))
    ll_problem = build_problem(low_load_state, low_load_params, CAL)
    cases.append((M.cluster_energy(identity_plan(ll_problem), low_load_state,
                                   low_load_params, CAL).total, 1851480.0,
                  "4-server baseline"))
    for got, want, name in cases:
        check(_close(got, want), f"{name}: {got!r} != {want!r}")
    # count-zero rule
    for got, name in [
        (M.sm_downtime("sm-mr", 0, CAL, 1.0), "downtime at 0"),
        (M.migration_duration("sdl", 0, CAL), "duration at 0"),
        (M.instantiation_time(0, CAL), "instantiation at 0"),
        (M.server_energy({}, {}, {}, {}, {}, 0, {"A": 1}, 1, p_mr, CAL),
         "off empty server"),
    ]:
        check(got == 0.0, f"{name}: {got!r} != 0")
    elapsed = time.perf_counter() - t0
    check(elapsed < 1.0, f"took {elapsed:.3f} s")
    _verdict(capsys, 2, "formula examples at 1e-9", failures)


def _random_small_instance(rng):
    n_classes = rng.randint(1, 2)
    ids = ["A", "B", "C", "D"]
    rng.shuffle(ids)
    chosen = ids[:n_classes]
    strategy = rng.choice(["sdl", "sm-mr", "sm-md"])
    rho = 1.0 if strategy == "sdl" else rng.choice([1.0, 10.0, 100.0])
    servers = tuple(
        ServerSpec(id=f"s{i + 1}", optional_flag=(i >= 1 and rng.random() < 0.7),
                   cpu_cap=rng.choice([64.0, 128.0]),
                   mem_cap=rng.choice([64.0, 125.0]),
                   disk_cap=250.0)
        for i in range(3)
    )
    total = rng.randint(0, 6)
    counts = {cls: [0, 0, 0] for cls in chosen}
    for _ in range(total):
        counts[rng.choice(chosen)][rng.randint(0, 2)] += 1
    deploys = {chosen[0]: rng.randint(0, 1)} if rng.random() < 0.3 else {}
    state = ClusterState(
        servers=servers,
        initial_counts={c: tuple(v) for c, v in counts.items()},
        initial_active=(1, 1, 1),
        pending_deploys=deploys,
    )
    return state, make_params(strategy, rho_mb=rho)


def test_criterion_3_oracle_equivalence(capsys):
    failures, check = _checker()
    t0 = time.perf_counter()
    rng = random.Random(12021)
    solved = 0
    for i in range(100):
        state, params = _random_small_instance(rng)
        problem = build_problem(state, params, CAL)
        bf_plan, bf = solve_bruteforce(problem, SolveLimits())
        bb_plan, bb = solve_bnb(problem, SolveLimits())
        check(bf.status == bb.status,
              f"#{i}: status {bf.status} vs {bb.status}")
        if bf.status != "optimal":
            continue
        solved += 1
        check(_close(bf.objective, bb.objective, rel=1e-6),
              f"#{i}: objective {bf.objective} vs {bb.objective}")
        for tag, plan in (("oracle", bf_plan), ("bnb", bb_plan)):
            verdict = validate_plan(problem, plan)
            check(verdict.valid, f"#{i}: {tag} plan invalid {verdict.violations}")
    check(solved >= 50, f"only {solved}/100 instances feasible; weak sample")
    elapsed = time.perf_counter() - t0
    check(elapsed < 60.0, f"took {elapsed:.1f} s")
    _verdict(capsys, 3, "oracle equivalence on 100 instances", failures,
             note=f"{solved} optimal, {elapsed:.1f} s")


def test_criterion_4_backend_population_boundary(capsys):
    failures, check = _checker()
    t0 = time.perf_counter()
    spec = SweepSpec(classes=(make_class("A"),), dominant_class="A",
                     count_range=tuple(range(0, 71)), rho_list_mb=(1.0,),
                     nu_list_s=(1.0,), strategies=("sdl",))
    params = make_params("sdl")
    _, summary = feasibility_sweep(spec, params, CAL)
    check(summary[("sdl", 1.0, 1.0)] == 60,
          f"max feasible {summary[('sdl', 1.0, 1.0)]} != 60")
    check(not M.sdl_feasible({"A": 61}, params, CAL).feasible, "61 not rejected")
    check(M.sdl_feasible({"A": 60}, params, CAL).feasible, "60 rejected")
    # monotonicity stand-in for untabulated large states: a pause eating the
    # whole budget shrinks the feasible population to zero
    heavy = load_calibration({"sigma": {"A": {"1.0": {"1.0": 1000.0}}}})
    _, heavy_summary = feasibility_sweep(spec, params, heavy)
    check(heavy_summary[("sdl", 1.0, 1.0)] == 0,
          f"heavy-sigma max {heavy_summary[('sdl', 1.0, 1.0)]} != 0")
    elapsed = time.perf_counter() - t0
    check(elapsed < 1.0, f"took {elapsed:.3f} s")
    _verdict(capsys, 4, "backend maintenance boundary at N=60", failures)


def test_criterion_5_consolidation_gain(capsys, low_load_state,
                                        low_load_params):
    failures, check = _checker()
    t0 = time.perf_counter()
    slot = run_timeslot(low_load_state, low_load_params, CAL, solver="bnb")
    check(slot.activation_ratio == 0.25,
          f"activation ratio {slot.activation_ratio} != 0.25")
    check(slot.energy_gain >= 0.60, f"gain {slot.energy_gain} < 0.60")
    problem = build_problem(low_load_state, low_load_params, CAL)
    _, oracle = solve_bruteforce(problem, SolveLimits())
    pinned = 1.0 - oracle.objective / slot.baseline_energy
    check(_close(slot.energy_gain, pinned),
          f"gain {slot.energy_gain} != oracle-pinned {pinned}")
    idle_bound = 3 * 120.0 * 3600.0 / slot.baseline_energy
    check(0.0 <= slot.energy_gain < idle_bound,
          f"gain {slot.energy_gain} outside [0, {idle_bound})")
    elapsed = time.perf_counter() - t0
    check(elapsed < 10.0, f"took {elapsed:.1f} s")
    _verdict(capsys, 5, "low-load consolidation gain", failures,
             note=f"gain={slot.energy_gain:.4f}")


def _mass_migration_verdict(strategy, n_out):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (n_out, 0)},
                         initial_active=(1, 1))
    problem = build_problem(state, make_params(strategy), CAL)
    base = identity_plan(problem)
    rows = [list(r) for r in base.x["A"]]
    rows[0][0] = 0
    rows[0][1] = n_out
    plan = MigrationPlan(x={"A": rows}, mu=(1, 1))
    return validate_plan(problem, plan)


def test_criterion_6_downtime_deadline(capsys):
    failures, check = _checker()
    t0 = time.perf_counter()
    for strategy, cap in (("sm-mr", 28), ("sm-md", 52)):
        over = _mass_migration_verdict(strategy, cap + 1)
        check("(20)" in over.violations,
              f"{strategy}: {cap + 1} migrations not rejected by (20)")
        at = _mass_migration_verdict(strategy, cap)
        check("(20)" not in at.violations,
              f"{strategy}: {cap} migrations wrongly rejected")
        check(at.valid, f"{strategy}: boundary plan invalid {at.violations}")
    elapsed = time.perf_counter() - t0
    check(elapsed < 1.0, f"took {elapsed:.3f} s")
    _verdict(capsys, 6, "per-server downtime deadline (20)", failures)


def test_criterion_7_property_suites(capsys, tmp_path, low_load_state,
                                     low_load_params):
    failures, check = _checker()
    t0 = time.perf_counter()

    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(0, 500)
        rho = rng.choice([1.0, 10.0, 100.0])
        check(M.migration_duration("sm-mr", n, CAL, rho)
              == M.sm_downtime("sm-mr", n, CAL, rho),
              f"cold-migration identity broke at n={n}, rho={rho}")
    check(M.sdl_downtime() == 0.0, "backend downtime not zero")

    problem = build_problem(low_load_state, low_load_params, CAL)
    for name, plan in (
        ("bruteforce", solve_bruteforce(problem, SolveLimits())[0]),
        ("bnb", solve_bnb(problem, SolveLimits())[0]),
        ("greedy", solve_greedy(problem)[0]),
    ):
        for cls in problem.classes:
            for s in range(problem.n_servers + 1):
                row_sum = sum(plan.x[cls][s])
                check(row_sum == problem.staged[cls][s],
                      f"{name}: row {s} sums {row_sum}")

    scen = {
        "classes": [{"id": "A", "msg_size": 100.0, "msg_period": 1.0}],
        "servers": [
            {"id": f"s{i+1}", "optional": i > 0, "cpu_cap": 128.0,
             "mem_cap": 125.0, "disk_cap": 250.0} for i in range(4)
        ],
        "initial_counts": {"A": [3, 3, 2, 2]},
        "params": {"state_size": 1.0e6, "strategy": "sm-mr"},
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scen))
    outs = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        rc = cli_main(["plan", "--scenario", str(spath), "--out", str(out)])
        check(rc == 0, f"cli run into {d} exited {rc}")
        outs.append(out)
    for artifact in ("report.json", "plan.json"):
        b1 = (outs[0] / artifact).read_bytes()
        b2 = (outs[1] / artifact).read_bytes()
        check(b1 == b2, f"{artifact} differs between identical runs")

    _, report = solve_bnb(problem, SolveLimits())
    incs = [v for kind, _, v in report.trace if kind == "incumbent"]
    bounds = [v for kind, _, v in report.trace if kind == "bound"]
    check(bool(incs) and bool(bounds), "empty solver trace")
    check(all(b <= a * (1 + 1e-9) for a, b in zip(incs, incs[1:])),
          "incumbent objective increased")
    check(all(b >= a - 1e-9 * max(1.0, abs(a))
              for a, b in zip(bounds, bounds[1:])),
          "lower bound decreased")

    for n in (0, 1, 10, 1000, 10**6):
        for resource in ("CPU", "MEM", "DISK"):
            v = M.strategy_overhead("sdl", resource, {"A": n, "B": n}, 4, CAL,
                                    True)
            check(v >= 0.0, f"backend share negative at n={n}")
        e = M.sdl_energy_per_server({"A": n}, 1, 3600.0, CAL)
        check(e >= 0.0, f"backend energy negative at n={n}")

    elapsed = time.perf_counter() - t0
    check(elapsed < 30.0, f"took {elapsed:.1f} s")
    _verdict(capsys, 7, "property suites", failures,
             note=f"{elapsed:.1f} s")


def test_criterion_8_scale_reporting(capsys):
    failures, check = _checker()
    spec = SweepSpec(classes=tuple(make_class(c) for c in "ABCD"),
                     dominant_class="A", count_range=(120,),
                     rho_list_mb=(1.0,), nu_list_s=(1.0,),
                     strategies=("sm-md",))
    counts = mix_counts(spec, 120)
    check(counts == {"A": 90, "B": 10, "C": 10, "D": 10},
          f"workload mix {counts}")
    state = balanced_state(spec.classes, make_servers(4), counts)
    problem = build_problem(state, make_params("sm-md"), CAL)

    t0 = time.perf_counter()
    plan, report = solve_bnb(problem, SolveLimits(time_limit=300.0))
    elapsed = time.perf_counter() - t0

    check(elapsed < 330.0, f"did not stop near the deadline ({elapsed:.0f} s)")
    check(report.status in ("optimal", "gap_reached", "time_limit"),
          f"status {report.status}")
    check(plan is not None, "no incumbent at the deadline")
    if plan is not None:
        verdict = validate_plan(problem, plan)
        check(verdict.valid, f"incumbent invalid: {verdict.violations}")
        check(math.isfinite(report.objective), "objective not finite")
        check(math.isfinite(report.lower_bound), "no certified bound")
        check(report.lower_bound <= report.objective * (1 + 1e-9),
              "bound above incumbent")
        expected_gap = (max(0.0, report.objective - report.lower_bound)
                        / max(report.objective, 1e-12))
        check(_close(report.mip_gap, expected_gap, rel=1e-9),
              f"gap {report.mip_gap} inconsistent with bound")
        if report.status == "optimal":
            check(report.mip_gap <= 1e-9, "optimal status with open gap")
    _verdict(capsys, 8, "scale instance gap reporting", failures,
             note=f"status={report.status} gap={report.mip_gap:.3f} "
                  f"nodes={report.nodes_explored} {elapsed:.0f} s")
