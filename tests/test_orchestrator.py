"""Timeslot loop, baseline reference, and parameter sweeps."""

import math

import pytest

from ricplan import (
    BaselineInfeasible,
    ClusterState,
    MigrationPlan,
    ServerSpec,
    SolveLimits,
    SweepSpec,
    apply_undeployments,
    balanced_state,
    baseline_energy,
    baseline_plan,
    build_problem,
    energy_sweep,
    feasibility_sweep,
    mix_counts,
    run_timeslot,
    solve_bruteforce,
    stage_deployments,
    validate_plan,
)
from tests.conftest import make_class, make_params, make_servers


def opt_opt_mand(counts_a, **pending):
    servers = (
        ServerSpec(id="s1", optional_flag=True, cpu_cap=128.0, mem_cap=125.0,
                   disk_cap=250.0),
        ServerSpec(id="s2", optional_flag=True, cpu_cap=128.0, mem_cap=125.0,
                   disk_cap=250.0),
        ServerSpec(id="s3", optional_flag=False, cpu_cap=128.0, mem_cap=125.0,
                   disk_cap=250.0),
    )
    return ClusterState(servers=servers, initial_counts={"A": counts_a},
                        initial_active=(1, 1, 1), **pending)


def sweep_spec(**kw):
    base = dict(
        classes=tuple(make_class(c) for c in "ABCD"),
        dominant_class="A",
        count_range=(10, 20),
        rho_list_mb=(1.0,),
        nu_list_s=(1.0,),
        strategies=("sdl",),
    )
    base.update(kw)
    return SweepSpec(**base)


# undeploy / deploy bookkeeping

def test_undeploy_drains_busiest_optional_first():
    state = opt_opt_mand((3, 2, 1), pending_undeploys={"A": 2})
    out = apply_undeployments(state)
    assert out.initial_counts["A"] == (1, 2, 1)
    assert not any(out.pending_undeploys.values())


def test_undeploy_spares_mandatory_until_last():
    state = opt_opt_mand((1, 1, 3), pending_undeploys={"A": 3})
    out = apply_undeployments(state)
    # both optionals drained before the busier mandatory loses its first
    assert out.initial_counts["A"] == (0, 0, 2)


def test_undeploy_weighs_every_class():
    # the busiest server is judged by all the xApps it hosts: the A leaves
    # s1 (3 hosted), not s2 (2 hosted, the most of class A)
    servers = opt_opt_mand((0, 0, 0)).servers
    state = ClusterState(servers=servers,
                         initial_counts={"A": (1, 2, 1), "B": (2, 0, 1)},
                         initial_active=(1, 1, 1),
                         pending_undeploys={"A": 1, "B": 1})
    out = apply_undeployments(state)
    assert out.initial_counts == {"A": (0, 2, 1), "B": (1, 0, 1)}
    assert not any(out.pending_undeploys.values())


def test_undeploy_zero_is_noop():
    state = opt_opt_mand((3, 2, 1), pending_undeploys={"A": 0})
    out = apply_undeployments(state)
    assert out.initial_counts["A"] == (3, 2, 1)


def test_undeploy_rejects_bad_counts():
    # the cluster state refuses an undeploy request that cannot be carried out
    for pending, message in [
        ({"A": 7}, "pending_undeploys[A] exceeds hosted count"),
        ({"A": -1},
         "pending_undeploys[A] must be a non-negative integer, got -1"),
        ({"A": 1, "Z": 3}, "pending_undeploys: unknown class 'Z'"),
    ]:
        with pytest.raises(ValueError) as exc:
            opt_opt_mand((3, 2, 1), pending_undeploys=pending)
        assert str(exc.value) == message


def test_stage_deployments_replaces():
    state = opt_opt_mand((1, 1, 1))
    once = stage_deployments(state, {"A": 2})
    twice = stage_deployments(once, {"A": 5})
    assert twice.pending_deploys["A"] == 5


# workload mixing

def test_mix_counts_canonical():
    spec = sweep_spec()
    assert mix_counts(spec, 120) == {"A": 90, "B": 10, "C": 10, "D": 10}


def test_mix_counts_largest_remainder():
    spec = sweep_spec()
    counts = mix_counts(spec, 8)
    assert counts == {"A": 6, "B": 1, "C": 1, "D": 0}
    assert sum(counts.values()) == 8


def test_mix_counts_always_sums(cal):
    spec = sweep_spec()
    for total in range(0, 50):
        assert sum(mix_counts(spec, total).values()) == total


def test_mix_counts_single_class_takes_all():
    spec = sweep_spec(classes=(make_class("A"),))
    assert mix_counts(spec, 61) == {"A": 61}


def test_balanced_state_spread():
    classes = (make_class("A"),)
    servers = make_servers(4)
    st = balanced_state(classes, servers, {"A": 10})
    assert st.initial_counts["A"] == (3, 3, 2, 2)
    assert st.initial_active == (1, 1, 1, 1)
    st8 = balanced_state(classes, servers, {"A": 8})
    assert st8.initial_counts["A"] == (2, 2, 2, 2)
    st0 = balanced_state(classes, servers, {"A": 0})
    assert st0.initial_counts["A"] == (0, 0, 0, 0)
    assert st0.initial_active == (1, 1, 1, 1)


# baseline

def test_baseline_energy_low_load(cal, low_load_state, low_load_params):
    assert math.isclose(baseline_energy(low_load_state, low_load_params, cal),
                        1851480.0, rel_tol=1e-9)


def test_baseline_places_deploys_least_loaded(cal, low_load_state,
                                              low_load_params):
    staged = stage_deployments(low_load_state, {"A": 1})
    plan = baseline_plan(staged, low_load_params, cal)
    assert plan.mu == (1, 1, 1, 1)
    placed = plan.x["A"][4]
    assert placed == (0, 0, 1, 0, 0)  # first of the two least-utilized servers


def test_baseline_plan_is_a_whole_plan(cal, low_load_state, low_load_params):
    # every server stays on, so an idle one may break (16) and nothing else
    staged = stage_deployments(low_load_state, {"A": 1})
    plan = baseline_plan(staged, low_load_params, cal)
    problem = build_problem(staged, low_load_params, cal)
    assert set(validate_plan(problem, plan).violations) <= {"(16)"}
    assert MigrationPlan.from_dict(plan.to_dict()) == plan


def test_baseline_infeasible_when_full(cal):
    servers = make_servers(2, cpu=2.0)
    state = ClusterState(servers=servers, initial_counts={"A": (4, 4)},
                         initial_active=(1, 1), pending_deploys={"A": 3})
    with pytest.raises(BaselineInfeasible):
        baseline_plan(state, make_params("sm-mr"), cal)


# slot loop

def test_run_timeslot_low_load(cal, low_load_state, low_load_params):
    slot = run_timeslot(low_load_state, low_load_params, cal, solver="bnb")
    assert slot.activation_ratio == 0.25
    assert slot.energy_gain >= 0.60
    assert slot.baseline_feasible
    assert math.isclose(slot.baseline_energy, 1851480.0, rel_tol=1e-9)
    # the realized gain is pinned to the exhaustive optimum
    problem = build_problem(low_load_state, low_load_params, cal)
    _, oracle = solve_bruteforce(problem, SolveLimits())
    pinned = 1.0 - oracle.objective / 1851480.0
    assert math.isclose(slot.energy_gain, pinned, rel_tol=1e-9)
    # state advances to the consolidated layout
    assert slot.next_state.initial_active == slot.plan.mu
    assert sum(slot.next_state.initial_counts["A"]) == 10
    assert not any(slot.next_state.pending_deploys.values())


def test_run_timeslot_all_mandatory_stays_put(cal, low_load_params):
    servers = make_servers(4, n_mandatory=4)
    state = ClusterState(servers=servers, initial_counts={"A": (3, 3, 2, 2)},
                         initial_active=(1, 1, 1, 1))
    slot = run_timeslot(state, low_load_params, cal, solver="bnb")
    assert slot.activation_ratio == 1.0
    assert abs(slot.energy_gain) < 1e-12  # nothing to shut down, nothing saved


def test_run_timeslot_infeasible_keeps_state(cal):
    servers = make_servers(4, n_mandatory=1)
    state = ClusterState(servers=servers, initial_counts={"A": (16, 15, 15, 15)},
                         initial_active=(1, 1, 1, 1))
    slot = run_timeslot(state, make_params("sdl"), cal, solver="bnb")
    assert slot.plan is None
    assert slot.report.status == "infeasible"
    assert slot.energy_gain is None
    assert slot.next_state.initial_counts == state.initial_counts
    assert slot.next_state.initial_active == state.initial_active


def test_run_timeslot_deploys_enter_population(cal, low_load_state,
                                               low_load_params):
    staged = stage_deployments(low_load_state, {"A": 3})
    slot = run_timeslot(staged, low_load_params, cal, solver="greedy")
    assert sum(slot.next_state.initial_counts["A"]) == 13
    assert not any(slot.next_state.pending_deploys.values())


def test_run_timeslot_replay_deterministic(cal, low_load_state,
                                           low_load_params):
    a = run_timeslot(low_load_state, low_load_params, cal, solver="bnb")
    b = run_timeslot(low_load_state, low_load_params, cal, solver="bnb")
    assert a.plan.x == b.plan.x
    assert a.plan.mu == b.plan.mu
    assert a.energy_gain == b.energy_gain
    assert a.next_state == b.next_state


def test_run_timeslot_rejects_unknown_solver(cal, low_load_state,
                                             low_load_params):
    with pytest.raises(ValueError, match="unknown solver"):
        run_timeslot(low_load_state, low_load_params, cal, solver="annealing")


# sweeps

def test_feasibility_boundary_sdl(cal):
    spec = sweep_spec(classes=(make_class("A"),),
                      count_range=tuple(range(0, 71)))
    rows, summary = feasibility_sweep(spec, make_params("sdl"), cal)
    assert summary[("sdl", 1.0, 1.0)] == 60
    by_n = {r["n_total"]: r["feasible"] for r in rows}
    assert by_n[60] is True
    assert by_n[61] is False


def test_feasibility_single_source_cap_sm(cal):
    spec = sweep_spec(classes=(make_class("A"),),
                      count_range=tuple(range(0, 71)),
                      strategies=("sm-md", "sm-mr"))
    rows, summary = feasibility_sweep(spec, make_params("sm-md"), cal)
    assert summary[("sm-md", 1.0, 1.0)] == 52  # floor(300 / 5.74)
    assert summary[("sm-mr", 1.0, 1.0)] == 28  # floor(300 / 10.55)


def test_feasibility_uncalibrated_rows_blank(cal, capsys):
    spec = sweep_spec(classes=(make_class("A"),), count_range=(1, 2),
                      rho_list_mb=(100.0,))
    rows, summary = feasibility_sweep(spec, make_params("sdl"), cal)
    assert all(r["feasible"] is None for r in rows)
    assert summary[("sdl", 100.0, 1.0)] is None
    assert "no calibration" in capsys.readouterr().err


def test_energy_sweep_gain_shrinks_with_load(cal):
    spec = sweep_spec(classes=(make_class("A"),), count_range=(4, 10, 40),
                      strategies=("sm-mr",))
    rows = energy_sweep(spec, make_servers(4), make_params("sm-mr"), cal,
                        solver="bnb")
    assert [r["n_total"] for r in rows] == [4, 10, 40]
    assert all(r["feasible"] for r in rows)
    gains = [r["energy_gain"] for r in rows]
    assert gains[0] >= gains[1] >= gains[2]
    ratios = [r["activation_ratio"] for r in rows]
    assert ratios == sorted(ratios)


def test_energy_sweep_row_shape(cal):
    spec = sweep_spec(classes=(make_class("A"),), count_range=(4,),
                      strategies=("sm-mr",))
    rows = energy_sweep(spec, make_servers(4), make_params("sm-mr"), cal)
    assert set(rows[0]) == {"strategy", "class", "rho_mb", "nu_s", "n_total",
                            "feasible", "energy_gain", "activation_ratio",
                            "mip_gap", "runtime_s"}


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="dominant"):
        sweep_spec(dominant_class="Z")
    with pytest.raises(ValueError, match="count_range"):
        sweep_spec(count_range=(-1,))
    with pytest.raises(ValueError):
        sweep_spec(strategies=("teleport",))
