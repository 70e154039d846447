"""Plan validation, aggregates, and migration-matrix reconstruction."""

import ast
import importlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ricplan import model
from ricplan import (
    ClusterState,
    MigrationPlan,
    SolveReport,
    annotate_plan,
    build_problem,
    identity_plan,
    load_calibration,
    objective_eval,
    validate_plan,
)
from ricplan.problem import (
    PlanError,
    drain_ok,
    lexmin_transport,
    mip_gap,
    plan_from_aggregates,
    source_downtime,
    source_window,
    usage,
)
from tests.conftest import make_params, make_servers


def two_server_state(counts_a=(2, 1), active=(1, 1), deploys=0, n_mandatory=1):
    return ClusterState(
        servers=make_servers(2, n_mandatory=n_mandatory),
        initial_counts={"A": counts_a},
        initial_active=active,
        pending_deploys={"A": deploys} if deploys else {},
    )


def edit(plan, cls, src, dst, delta):
    rows = [list(r) for r in plan.x[cls]]
    rows[src][dst] += delta
    x = dict(plan.x)
    x[cls] = rows
    return MigrationPlan(x=x, mu=plan.mu)


def test_identity_plan_valid(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    verdict = validate_plan(problem, identity_plan(problem))
    assert verdict.valid
    assert verdict.violations == ()
    assert bool(verdict)


def test_build_problem_rejects_pending_undeploys(cal):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (2, 1)}, initial_active=(1, 1),
                         pending_undeploys={"A": 1})
    with pytest.raises(ValueError, match="undeploy"):
        build_problem(state, make_params("sm-mr"), cal)


def test_hosting_on_off_server_names_17(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = MigrationPlan(x=base.x, mu=(1, 0))
    verdict = validate_plan(problem, plan)
    assert not verdict.valid
    assert "(17)" in verdict.violations
    assert any("hosts" in m for _, m in verdict.breaches)


def test_empty_powered_optional_names_16(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    # move s2's only xApp to s1 but leave s2 powered
    plan = edit(edit(base, "A", 1, 1, -1), "A", 1, 0, +1)
    verdict = validate_plan(problem, plan)
    assert "(16)" in verdict.violations


def test_conservation_breach_names_12(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    plan = edit(identity_plan(problem), "A", 0, 0, +1)
    verdict = validate_plan(problem, plan)
    assert "(12)" in verdict.violations


def test_inflow_to_staging_names_13(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -1), "A", 0, 2, +1)
    verdict = validate_plan(problem, plan)
    assert "(13)" in verdict.violations


def test_unplaced_deployment_names_14(cal):
    problem = build_problem(two_server_state(deploys=2), make_params("sm-mr"), cal)
    verdict = validate_plan(problem, identity_plan(problem))
    assert "(14)" in verdict.violations
    assert any("0 of 2" in m for _, m in verdict.breaches)


def test_placed_deployment_passes(cal):
    problem = build_problem(two_server_state(deploys=2), make_params("sm-mr"), cal)
    plan = edit(identity_plan(problem), "A", 2, 0, +2)
    assert validate_plan(problem, plan).valid


def test_sending_from_off_server_names_15(cal):
    # an initially-off server holds nothing, so a send from it necessarily
    # breaks conservation too; the check still names the activation rule
    problem = build_problem(two_server_state(counts_a=(2, 0), active=(1, 0)),
                            make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(base, "A", 1, 0, +1)
    plan = MigrationPlan(x=plan.x, mu=(1, 0))
    verdict = validate_plan(problem, plan)
    assert "(15)" in verdict.violations
    assert "(12)" in verdict.violations


def test_mandatory_off_names_19(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -2), "A", 0, 1, +2)
    plan = MigrationPlan(x=plan.x, mu=(0, 1))
    verdict = validate_plan(problem, plan)
    assert "(19)" in verdict.violations
    assert any("mandatory" in m for _, m in verdict.breaches)


def test_negative_entry_names_19(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    plan = edit(identity_plan(problem), "A", 0, 1, -1)
    verdict = validate_plan(problem, plan)
    assert "(19)" in verdict.violations


def test_capacity_breach_names_18(cal):
    servers = make_servers(2, cpu=8.0)  # idle 0.1 + 20*0.47 blows an 8-core cap
    state = ClusterState(servers=servers, initial_counts={"A": (20, 0)},
                         initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = MigrationPlan(x=base.x, mu=(1, 0))
    verdict = validate_plan(problem, plan)
    assert "(18)" in verdict.violations
    assert any("CPU" in m for _, m in verdict.breaches)


def test_downtime_budget_names_20(cal):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (29, 0)}, initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -29), "A", 0, 1, +29)
    verdict = validate_plan(problem, plan)
    assert "(20)" in verdict.violations  # 29 x 10.55 s = 305.95 s over 300 s


def test_downtime_at_budget_passes(cal):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (28, 0)}, initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -28), "A", 0, 1, +28)
    plan = MigrationPlan(x=plan.x, mu=(1, 1))
    verdict = validate_plan(problem, plan)
    assert "(20)" not in verdict.violations


def test_sdl_population_budget_names_21(cal):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (40, 21)}, initial_active=(1, 1))
    problem = build_problem(state, make_params("sdl"), cal)
    verdict = validate_plan(problem, identity_plan(problem))
    assert "(21)" in verdict.violations


def test_window_overflow_flagged(cal):
    state = ClusterState(servers=make_servers(2),
                         initial_counts={"A": (5, 0)}, initial_active=(1, 1))
    problem = build_problem(state, make_params("sm-md", slot=100.0), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -5), "A", 0, 1, +5)
    verdict = validate_plan(problem, plan)
    assert "window" in verdict.violations  # 5 x 20.28 s = 101.4 s > 100 s slot


def test_dimension_mismatches_raise(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    with pytest.raises(ValueError, match="mu"):
        validate_plan(problem, MigrationPlan(x=base.x, mu=(1, 1, 1)))
    with pytest.raises(ValueError, match="classes"):
        validate_plan(problem, MigrationPlan(x={"B": base.x["A"]}, mu=base.mu))
    with pytest.raises(ValueError, match="3x3"):
        bad = {"A": ((0, 0), (0, 0))}
        validate_plan(problem, MigrationPlan(x=bad, mu=base.mu))


# aggregates and reconstruction

def test_plan_aggregates(cal):
    problem = build_problem(two_server_state(deploys=1), make_params("sm-mr"), cal)
    base = identity_plan(problem)
    plan = edit(edit(base, "A", 0, 0, -1), "A", 0, 1, +1)
    plan = edit(plan, "A", 2, 1, +1)
    o, m, d, h = model.plan_aggregates(plan, problem.n_servers)
    assert o["A"] == (1, 0)
    assert m["A"] == (0, 1)
    assert d["A"] == (0, 1)
    assert h["A"] == (1, 3)


def test_lexmin_transport_zero():
    assert lexmin_transport([0, 0], [0, 0]) == [[0, 0], [0, 0]]


def test_lexmin_transport_simple():
    assert lexmin_transport([1, 0], [0, 1]) == [[0, 1], [0, 0]]


def test_lexmin_transport_forced_backtrack():
    # greedy zero at (0,1) would strand server 1's unit on its own column
    t = lexmin_transport([2, 1, 0], [0, 1, 2])
    assert t == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
    for i in range(3):
        assert t[i][i] == 0


def test_lexmin_transport_unrealizable():
    with pytest.raises(ValueError, match="unrealizable"):
        lexmin_transport([1, 0], [1, 0])


def _compositions(total, parts):
    """Every tuple of `parts` non-negative ints summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(v,) + rest for v in range(total + 1)
            for rest in _compositions(total - v, parts - 1)]


def _brute_lexmin(outgoing, incoming):
    """The lex-min transport by enumeration, or None if there is none."""
    n = len(outgoing)
    best = None
    rows = [_compositions(o, n - 1) for o in outgoing]
    for choice in itertools.product(*rows):
        t = [list(row[:s]) + [0] + list(row[s:])
             for s, row in enumerate(choice)]
        if [sum(col) for col in zip(*t)] != list(incoming):
            continue
        if best is None or sum(t, []) < sum(best, []):
            best = t
    return best


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lexmin_transport_matches_enumeration(n):
    for outgoing in itertools.product(range(4), repeat=n):
        for incoming in itertools.product(range(4), repeat=n):
            want = _brute_lexmin(outgoing, incoming)
            if want is None:
                with pytest.raises(ValueError, match="unrealizable"):
                    lexmin_transport(list(outgoing), list(incoming))
            else:
                assert lexmin_transport(list(outgoing),
                                        list(incoming)) == want


@st.composite
def transport_counts(draw):
    """Row and column sums of a random transport, each count then shifted
    by -1..1, so both realizable and unrealizable pairs come up."""
    n = draw(st.integers(1, 8))
    cells = st.integers(0, 3)
    t = [[0 if i == j else draw(cells) for j in range(n)] for i in range(n)]
    shift = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    outgoing = [sum(row) + d for row, d in zip(t, draw(shift))]
    incoming = [sum(col) + d for col, d in zip(zip(*t), draw(shift))]
    return outgoing, incoming


@settings(max_examples=300, deadline=None)
@given(transport_counts())
def test_lexmin_transport_realizes_exactly_under_hall(counts):
    outgoing, incoming = counts
    total = sum(outgoing)
    hall = total == sum(incoming) and all(
        o >= 0 and m >= 0 and o + m <= total
        for o, m in zip(outgoing, incoming))
    if not hall:
        with pytest.raises(ValueError, match="unrealizable"):
            lexmin_transport(outgoing, incoming)
        return
    t = lexmin_transport(outgoing, incoming)
    n = len(outgoing)
    assert all(v >= 0 for row in t for v in row)
    assert all(t[s][s] == 0 for s in range(n))
    assert [sum(row) for row in t] == outgoing
    assert [sum(col) for col in zip(*t)] == incoming


def test_plan_from_aggregates_round_trip(cal):
    problem = build_problem(two_server_state(deploys=1), make_params("sm-mr"), cal)
    plan = plan_from_aggregates(problem, (1, 1), outgoing={"A": (1, 0)},
                                incoming={"A": (0, 1)}, deploys={"A": (0, 1)})
    o, m, d, h = model.plan_aggregates(plan, problem.n_servers)
    assert (o["A"], m["A"], d["A"]) == ((1, 0), (0, 1), (0, 1))
    assert validate_plan(problem, plan).valid


def test_plan_from_aggregates_rejects_overdraw(cal):
    problem = build_problem(two_server_state(), make_params("sm-mr"), cal)
    with pytest.raises(ValueError, match="exceeds initial count"):
        plan_from_aggregates(problem, (1, 1), outgoing={"A": (3, 0)},
                             incoming={"A": (0, 3)}, deploys={"A": (0, 0)})


# serialization and reports

def test_plan_round_trip(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan = annotate_plan(problem, identity_plan(problem))
    doc = plan.to_dict()
    back = MigrationPlan.from_dict(doc)
    assert back.x == plan.x
    assert back.mu == plan.mu
    assert doc["activation_ratio"] == 1.0
    assert math.isclose(doc["energy_total_j"], 1851480.0, rel_tol=1e-9)
    assert set(doc["kpi"]) == {"downtime_s", "migration_duration_s",
                               "instantiation_s", "defrag_downtime_s",
                               "active_time_s"}


def test_plan_from_dict_malformed():
    with pytest.raises(PlanError, match="^plan: missing required key 'x'$"):
        MigrationPlan.from_dict({"mu": [1, 0]})


@pytest.mark.parametrize("x, mu", [
    ({"A": [[2.9, 0], [0, 0]]}, [1]),
    ({"A": [[2, 0], [0, 0]]}, [0.6]),
    ({"A": [[2, 0], [0, 0]]}, ["1"]),
], ids=["fractional-count", "fractional-mu", "string-mu"])
def test_plan_constructor_rejects_non_integers(x, mu):
    # truncating would hand the validator a plan nobody wrote
    with pytest.raises(TypeError):
        MigrationPlan(x=x, mu=mu)


def test_objective_matches_annotation(cal, low_load_state, low_load_params):
    problem = build_problem(low_load_state, low_load_params, cal)
    plan = identity_plan(problem)
    assert math.isclose(objective_eval(problem, plan), 1851480.0, rel_tol=1e-9)


def test_mip_gap():
    assert mip_gap(None, 10.0) == math.inf
    assert mip_gap(100.0, -math.inf) == math.inf
    assert math.isclose(mip_gap(100.0, 90.0), 0.1, rel_tol=1e-12)
    assert mip_gap(100.0, 110.0) == 0.0


def test_report_to_dict_nonfinite():
    rep = SolveReport(status="infeasible", objective=None,
                      lower_bound=math.inf, runtime=0.5, nodes_explored=3,
                      detail="x")
    doc = rep.to_dict()
    assert doc["objective_j"] is None
    assert doc["lower_bound_j"] is None
    assert doc["mip_gap"] is None
    assert doc["status"] == "infeasible"
    assert "trace" not in doc


@st.composite
def drain_cases(draw):
    """A 3-server problem under a calibration whose KPI intercepts take
    either sign, plus an optional server s to drain."""
    strategy = draw(st.sampled_from(["sdl", "sm-mr", "sm-md"]))
    rho = 1.0 if strategy == "sdl" else \
        draw(st.sampled_from([1.0, 10.0, 100.0]))
    coeffs = {
        "delta_d": draw(st.sampled_from([0.0, 5.74, 10.55, 23.3])),
        "b_d": draw(st.sampled_from([-20.0, -5.0, 0.0, 30.0, 150.0])),
        "delta_m": draw(st.sampled_from([0.08, 10.55, 20.28])),
        "b_m": draw(st.sampled_from([-5.0, 0.0, 4.27, 40.0])),
    }
    cal = load_calibration({"kpi": {strategy: {str(rho): coeffs}}})
    counts = {cls: tuple(draw(st.integers(0, 5)) for _ in range(3))
              for cls in ("A", "B")}
    state = ClusterState(servers=make_servers(3), initial_counts=counts,
                         initial_active=(1, 1, 1))
    params = make_params(strategy, rho_mb=rho,
                         slot=draw(st.sampled_from([120.0, 3600.0])),
                         td_max=draw(st.integers(0, 60)) * 5.0)
    return build_problem(state, params, cal), draw(st.integers(1, 2))


@settings(max_examples=300)
@given(drain_cases())
def test_drain_rule_matches_validator(case):
    # the drain rule holds exactly when moving all of s's xApps to the
    # mandatory server breaks neither (20) nor the window at any server
    problem, s = case
    plan = identity_plan(problem)
    x = {}
    for cls, rows in plan.x.items():
        rows = [list(r) for r in rows]
        rows[s][0], rows[s][s] = rows[s][s], 0
        x[cls] = rows
    mu = tuple(0 if i == s else 1 for i in range(problem.n_servers))
    violations = validate_plan(problem, MigrationPlan(x=x, mu=mu)).violations
    assert drain_ok(problem, s) == \
        ("(20)" not in violations and "window" not in violations)


_COEFF = st.floats(-50.0, 50.0, allow_nan=False)
_NONNEG = st.floats(0.0, 50.0, allow_nan=False)


@st.composite
def rule_cases(draw):
    """A problem under a random calibration (KPI and backend intercepts of
    either sign), plus per-class counts for one server: hosted, outgoing,
    deployed, and whether it runs the migration machinery."""
    strategy = draw(st.sampled_from(["sdl", "sm-mr", "sm-md"]))
    rho = 1.0 if strategy == "sdl" else \
        draw(st.sampled_from([1.0, 10.0, 100.0]))
    classes = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4,
                            unique=True))

    def line():
        return {"delta_d": draw(_NONNEG), "b_d": draw(_COEFF),
                "delta_m": draw(_NONNEG), "b_m": draw(_COEFF)}

    kpi = {"sdl": {"*": line()}}
    kpi.setdefault(strategy, {})[str(rho)] = line()
    metrics = ("E", "CPU", "MEM", "DISK")
    cal = load_calibration({
        "kpi": kpi,
        "sdl_linear": {c: {r: {"delta": draw(_COEFF), "b": draw(_COEFF)}
                           for r in metrics} for c in classes},
        "sm_overhead": {s: {r: draw(_NONNEG) for r in metrics}
                        for s in ("sm-mr", "sm-md")},
        "xapp_load": {c: {r: draw(_NONNEG) for r in metrics}
                      for c in classes},
        "server_idle": {r: draw(_NONNEG) for r in metrics},
    })
    n = draw(st.integers(1, 4))
    counts = {c: tuple(draw(st.integers(0, 30)) for _ in range(n))
              for c in classes}
    state = ClusterState(
        servers=make_servers(n), initial_counts=counts,
        initial_active=(1,) * n,
        pending_deploys={c: draw(st.integers(0, 5)) for c in classes})
    problem = build_problem(state, make_params(strategy, rho_mb=rho), cal)
    k = len(classes)
    counts = st.lists(st.integers(0, 40), min_size=k, max_size=k)
    return (problem, draw(counts), draw(counts), draw(counts),
            draw(st.booleans()))


@settings(max_examples=300)
@given(rule_cases())
def test_rules_match_model_bit_for_bit(case):
    problem, hosted, outgoing, deploys, participates = case
    strategy, cal = problem.params.strategy, problem.cal
    rho = problem.params.rho_mb
    reference = model.server_resources(
        problem.state.servers[0], True, dict(zip(problem.classes, hosted)),
        strategy, cal, total_counts=problem.totals,
        server_count=problem.n_servers, participates=participates)
    assert usage(problem, hosted, participates) == reference.as_tuple()
    if strategy in model.SM_STRATEGIES:
        assert source_downtime(problem, outgoing) == sum(
            model.sm_downtime(strategy, o, cal, rho) for o in outgoing)
    assert source_window(problem, outgoing, deploys) == sum(
        model.migration_duration(strategy, o, cal, rho)
        + model.instantiation_time(d, cal)
        for o, d in zip(outgoing, deploys))


_SOLVER_MODULES = ("bnb", "greedy", "orchestrator", "bruteforce")
_LOOKUPS = {"lookup"}


@pytest.mark.parametrize("name", _SOLVER_MODULES)
def test_solvers_read_coefficients_through_problem(name):
    # the calibration constants of a problem come from problem.coeffs, and
    # its capacity, downtime and window rules from the problem helpers; a
    # solver that looks a coefficient up itself re-derives a rule
    path = importlib.import_module(f"ricplan.{name}").__file__
    tree = ast.parse(open(path, encoding="utf-8").read())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & _LOOKUPS, f"ricplan.{name} uses {sorted(used & _LOOKUPS)}"
