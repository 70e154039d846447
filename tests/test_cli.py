"""Command-line interface: exit codes, artifacts, determinism."""

import json
import math
from pathlib import Path

import pytest

from ricplan import cli
from ricplan.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def low_load_doc(**overrides):
    doc = {
        "classes": [{"id": "A", "msg_size": 100.0, "msg_period": 1.0}],
        "servers": [
            {"id": "s1", "optional": False, "cpu_cap": 128.0,
             "mem_cap": 125.0, "disk_cap": 250.0},
            {"id": "s2", "optional": True, "cpu_cap": 128.0,
             "mem_cap": 125.0, "disk_cap": 250.0},
            {"id": "s3", "optional": True, "cpu_cap": 128.0,
             "mem_cap": 125.0, "disk_cap": 250.0},
            {"id": "s4", "optional": True, "cpu_cap": 128.0,
             "mem_cap": 125.0, "disk_cap": 250.0},
        ],
        "initial_counts": {"A": [3, 3, 2, 2]},
        "params": {"state_size": 1.0e6, "strategy": "sm-mr"},
    }
    doc.update(overrides)
    return doc


def sweep_doc(**overrides):
    doc = {
        "classes": [{"id": "A", "msg_size": 100.0, "msg_period": 1.0}],
        "dominant_class": "A",
        "count_range": [4, 10],
        "rho_list_mb": [1.0],
        "nu_list_s": [1.0],
        "strategies": ["sm-mr"],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario(tmp_path):
    return write_json(tmp_path / "scenario.json", low_load_doc())


def test_plan_writes_artifacts(tmp_path, scenario, capsys):
    out = tmp_path / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("status=optimal")
    assert "activation_ratio=0.25" in line

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "optimal"
    assert math.isclose(report["objective_j"], 566277.0, rel_tol=1e-6)
    assert math.isclose(report["energy_gain"], 0.694149, rel_tol=1e-6)
    assert report["runtime_s"] is None

    plan = json.loads((out / "plan.json").read_text())
    assert plan["mu"] == [1, 0, 0, 0]
    assert sum(sum(r) for r in plan["x"]["A"]) == 10


def test_plan_infeasible_exits_2(tmp_path, capsys):
    doc = low_load_doc(initial_counts={"A": [16, 15, 15, 15]},
                       params={"state_size": 1.0e6, "strategy": "sdl"})
    scenario = write_json(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out)])
    assert rc == 2
    assert "status=infeasible" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["objective_j"] is None
    assert not (out / "plan.json").exists()


def test_plan_time_limit_exits_0(tmp_path, capsys):
    doc = low_load_doc(limits={"time_limit": 0.0})
    scenario = write_json(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out)])
    assert rc == 0
    assert "status=time_limit" in capsys.readouterr().out
    assert (out / "plan.json").exists()


def test_plan_strategy_override(tmp_path, capsys):
    doc = low_load_doc()
    del doc["params"]["strategy"]
    scenario = write_json(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out)])
    assert rc == 1
    assert "params.strategy" in capsys.readouterr().err
    rc = main(["plan", "--scenario", scenario, "--strategy", "sm-mr",
               "--out", str(out)])
    assert rc == 0


def test_plan_deterministic_bytes(tmp_path, scenario):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["plan", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["plan", "--scenario", scenario, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "plan.json").read_bytes() == (out2 / "plan.json").read_bytes()


def test_cached_parser_leaks_nothing_between_calls(tmp_path, scenario):
    # the parser is built once per process: one call's flags must not reach
    # the next call, whose artifacts match those of a lone call
    lone, first, second = (tmp_path / d for d in ("lone", "first", "second"))
    cli._build_parser.cache_clear()
    assert main(["plan", "--scenario", scenario, "--out", str(lone)]) == 0
    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert main(["plan", "--scenario", scenario, "--out", str(first),
                 "--solver", "greedy", "--emit-runtime"]) == 0
    assert main(["plan", "--scenario", scenario, "--out", str(second)]) == 0
    assert cli._build_parser() is parser
    for name in ("report.json", "plan.json"):
        assert (second / name).read_bytes() == (lone / name).read_bytes()
    assert (first / "report.json").read_bytes() != \
        (lone / "report.json").read_bytes()


def test_plan_emit_runtime(tmp_path, scenario):
    out = tmp_path / "out"
    rc = main(["plan", "--scenario", scenario, "--out", str(out),
               "--emit-runtime"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert isinstance(report["runtime_s"], float)


def test_scenario_errors_exit_1(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", low_load_doc(bogus=1))
    assert main(["plan", "--scenario", bad, "--out", str(tmp_path)]) == 1
    assert "bogus" in capsys.readouterr().err

    doc = low_load_doc(initial_counts={"A": [3, 3]})
    mismatched = write_json(tmp_path / "dim.json", doc)
    assert main(["plan", "--scenario", mismatched, "--out", str(tmp_path)]) == 1
    assert "initial_counts" in capsys.readouterr().err

    assert main(["plan", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_plan_missing_calibration_entry_exits_1(tmp_path, capsys):
    doc = low_load_doc(params={"state_size": 5.0e6, "strategy": "sm-mr"})
    scenario = write_json(tmp_path / "s.json", doc)
    rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: no calibration entry for kpi.sm-mr.rho=5.0\n"


@pytest.mark.parametrize("solver", ["bnb", "greedy", "bruteforce"])
def test_plan_window_at_slot_tolerance(tmp_path, solver, capsys):
    # draining s2 (5 sm-md migrations at 20.28 s) takes a 101.4 s window,
    # above the slot by less than the shared tolerance: the validator accepts
    # that plan, so the energy model must evaluate it too
    doc = low_load_doc(
        servers=low_load_doc()["servers"][:2],
        initial_counts={"A": [0, 5]},
        params={"state_size": 1.0e6, "strategy": "sm-md",
                "slot_length": 101.4 / (1 + 5e-10)},
    )
    scenario = write_json(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--solver", solver,
                 "--out", str(out)]) == 0
    assert main(["validate", "--scenario", scenario,
                 "--plan", str(out / "plan.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


@pytest.mark.parametrize("solver", ["bnb", "greedy", "bruteforce"])
def test_plan_negative_duration_intercept(tmp_path, solver, capsys):
    # a fitted migration line with b_m < 0 gives a negative duration for
    # few xApps; the model floors each class's duration at zero
    doc = low_load_doc(servers=low_load_doc()["servers"][:2],
                       initial_counts={"A": [3, 2]})
    scenario = write_json(tmp_path / "s.json", doc)
    cal = write_json(tmp_path / "cal.json", {"kpi": {"sm-mr": {"1.0": {
        "delta_d": 1.0, "b_d": 0.0, "delta_m": 1.0, "b_m": -5.0}}}})
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--calibration", cal,
                 "--solver", solver, "--out", str(out)]) == 0
    assert main(["validate", "--scenario", scenario, "--calibration", cal,
                 "--plan", str(out / "plan.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


@pytest.mark.parametrize("solver", ["bnb", "greedy", "bruteforce"])
def test_plan_negative_downtime_intercept(tmp_path, solver, capsys):
    # a fitted downtime line with b_d < 0 goes negative for few xApps; the
    # model floors each class's downtime at zero
    doc = low_load_doc(
        classes=[{"id": "A", "msg_size": 100.0, "msg_period": 1.0},
                 {"id": "B", "msg_size": 100.0, "msg_period": 0.1}],
        servers=low_load_doc()["servers"][:2],
        initial_counts={"A": [3, 1], "B": [3, 1]})
    scenario = write_json(tmp_path / "s.json", doc)
    cal = write_json(tmp_path / "cal.json", {"kpi": {"sm-mr": {"1.0": {
        "delta_d": 1.0, "b_d": -5.0, "delta_m": 1.0, "b_m": 0.0}}}})
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--calibration", cal,
                 "--solver", solver, "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["mu"] == [1, 0]
    assert plan["kpi"]["downtime_s"] == {"A": [0.0, 0.0], "B": [0.0, 0.0]}
    assert main(["validate", "--scenario", scenario, "--calibration", cal,
                 "--plan", str(out / "plan.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


def _seedless_doc():
    # greedy finds no plan here, but the scenario has one
    return low_load_doc(
        classes=[{"id": "D", "msg_size": 100e3, "msg_period": 0.1}],
        servers=[{"id": f"s{i}", "optional": False, "cpu_cap": 10.0,
                  "mem_cap": 125.0, "disk_cap": 250.0} for i in (1, 2)],
        initial_counts={"D": [1, 3]},
        params={"state_size": 1.0e6, "strategy": "sdl"})


def test_plan_without_greedy_seed_matches_bruteforce(tmp_path):
    # bnb used to report "infeasible" (exit 2) without greedy's seed
    scenario = write_json(tmp_path / "s.json", _seedless_doc())
    objectives = []
    for solver in ("bnb", "bruteforce"):
        out = tmp_path / solver
        assert main(["plan", "--scenario", scenario, "--solver", solver,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        objectives.append(report["objective_j"])
    assert objectives[0] == objectives[1]
    assert math.isclose(objectives[0], 1245169.3184, rel_tol=1e-6)


def test_greedy_without_a_plan_reports_no_plan(tmp_path):
    # a heuristic that finds nothing has not proven infeasibility: the
    # report reads "no_plan", and the exit code is infeasible's 2
    scenario = write_json(tmp_path / "s.json", _seedless_doc())
    out = tmp_path / "greedy"
    assert main(["plan", "--scenario", scenario, "--solver", "greedy",
                 "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "no_plan"
    assert report["objective_j"] is None
    assert not (out / "plan.json").exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["plan"])  # missing required --scenario/--out
    assert exc.value.code == 1


def test_feasibility_csv_and_summary(tmp_path, scenario, capsys):
    sweep = write_json(tmp_path / "grid.json",
                       sweep_doc(count_range=list(range(0, 71)),
                                 strategies=["sdl", "sm-md"]))
    out = tmp_path / "out"
    rc = main(["feasibility", "--scenario", scenario, "--sweep", sweep,
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "sdl rho_mb=1 nu_s=1 max_feasible=60" in lines
    assert "sm-md rho_mb=1 nu_s=1 max_feasible=52" in lines

    csv_lines = (out / "feasibility.csv").read_text().splitlines()
    assert csv_lines[0] == ("strategy,class,rho_mb,nu_s,n_total,feasible,"
                            "energy_gain,activation_ratio,mip_gap,runtime_s")
    assert len(csv_lines) == 1 + 2 * 71
    row61 = next(l for l in csv_lines if l.startswith("sdl,A,1,1,61,"))
    assert row61.split(",")[5] == "false"


def test_feasibility_empty_range_header_only(tmp_path, scenario):
    sweep = write_json(tmp_path / "grid.json", sweep_doc(count_range=[]))
    out = tmp_path / "out"
    rc = main(["feasibility", "--scenario", scenario, "--sweep", sweep,
               "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "feasibility.csv").read_text().splitlines()
    assert len(csv_lines) == 1


def test_sweep_rows(tmp_path, scenario, capsys):
    sweep = write_json(tmp_path / "grid.json", sweep_doc())
    out = tmp_path / "out"
    rc = main(["sweep", "--scenario", scenario, "--sweep", sweep,
               "--out", str(out), "--solver", "bnb"])
    assert rc == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    # runtime column stays blank for byte-stable output
    assert all(l.endswith(",") for l in csv_lines[1:])


@pytest.mark.parametrize("entry, message", [
    ("A", "classes[0]: expected an object"),
    ({"id": "A", "msg_size": 100.0},
     "classes[0]: missing required key 'msg_period'"),
    ({"id": "A", "msg_size": 100.0, "msg_period": 1.0, "bogus": 1},
     "classes[0]: unknown key(s) 'bogus'"),
    # an id is a JSON string, never the text of another value
    ({"id": None, "msg_size": 100.0, "msg_period": 1.0},
     "classes[0].id: expected a string, got None"),
    ({"id": ["x"], "msg_size": 100.0, "msg_period": 1.0},
     "classes[0].id: expected a string, got ['x']"),
], ids=["not-an-object", "missing-key", "unknown-key", "null-id", "list-id"])
def test_malformed_class_entry_exits_1(tmp_path, scenario, entry, message,
                                       capsys):
    # scenario and sweep files share one class-list parser and its messages
    sweep = write_json(tmp_path / "grid.json", sweep_doc(classes=[entry]))
    rc = main(["sweep", "--scenario", scenario, "--sweep", sweep,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"

    bad = write_json(tmp_path / "s.json", low_load_doc(classes=[entry]))
    assert main(["plan", "--scenario", bad, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _server(**overrides):
    return {"id": "s1", "optional": False, "cpu_cap": 128.0, "mem_cap": 125.0,
            "disk_cap": 250.0, **overrides}


def _first_server(entry):
    doc = low_load_doc()
    doc["servers"][0] = entry
    return doc


@pytest.mark.parametrize("doc, message", [
    (_first_server(_server(cpu_cap="x")),
     "servers[0].cpu_cap: expected a number, got 'x'"),
    (_first_server(_server(id=1.5)),
     "servers[0].id: expected a string, got 1.5"),
    (_first_server({"id": "s1", "cpu_cap": 128.0, "mem_cap": 125.0}),
     "servers[0]: missing required key 'disk_cap'"),
    # a complaint of the server itself gets the entry's place once
    (_first_server(_server(cpu_cap=0.0)),
     "servers[0]: server s1: capacities must be > 0"),
    # a string is not a flag: "false" would read as optional, "0" as active
    (_first_server(_server(optional="false")),
     "servers[0].optional: expected true, false, 0 or 1, got 'false'"),
    (_first_server(_server(optional=2)),
     "servers[0].optional: expected true, false, 0 or 1, got 2"),
    (low_load_doc(initial_active=[1, "0", 1, 1]),
     "initial_active[1]: expected true, false, 0 or 1, got '0'"),
    (low_load_doc(pending_deploys={"A": 10 ** 400}),
     "pending_deploys[A]: non-finite value"),
    # the parser reads the JSON types; the cluster state judges lengths and
    # class ids
    (low_load_doc(initial_counts={"A": [3, 3, 2, 2], "Z": [0, 0, 0, 0]}),
     "initial_counts: unknown key(s) 'Z'"),
    (low_load_doc(initial_counts={"A": [3, 3]}),
     "initial_counts[A]: expected 4 entries"),
    (low_load_doc(initial_active=[1, 1]),
     "initial_active length must match servers"),
    (low_load_doc(pending_deploys={"Z": 1}),
     "pending_deploys: unknown class 'Z'"),
], ids=["not-a-number", "number-id", "missing-key", "zero-capacity",
        "optional-string", "optional-two", "active-string", "huge-count",
        "unknown-count-class", "short-row", "short-active",
        "unknown-pending-class"])
def test_malformed_server_entry_exits_1(tmp_path, doc, message, capsys):
    bad = write_json(tmp_path / "s.json", doc)
    assert main(["plan", "--scenario", bad, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _params(**overrides):
    return {"state_size": 1.0e6, "strategy": "sm-mr", **overrides}


# every number of a scenario or sweep file must be finite; NaN, Infinity and
# -Infinity are what Python's json module reads and writes for them
@pytest.mark.parametrize("doc, grid, message", [
    (low_load_doc(params=_params(slot_length=math.inf)), None,
     "params.slot_length: non-finite value"),
    (_first_server(_server(cpu_cap=math.nan)), None,
     "servers[0].cpu_cap: non-finite value"),
    (low_load_doc(limits={"time_limit": math.nan}), None,
     "limits.time_limit: non-finite value"),
    (low_load_doc(limits={"gap_target": -0.01}), None,
     "limits.gap_target: must be >= 0, got -0.01"),
    (low_load_doc(), sweep_doc(rho_list_mb=[1.0, math.nan]),
     "rho_list_mb[1]: non-finite value"),
    (low_load_doc(), sweep_doc(rho_list_mb=[-1.0]),
     "rho_list_mb entries must be > 0"),
    (low_load_doc(), sweep_doc(nu_list_s=[0]),
     "nu_list_s entries must be > 0"),
], ids=["infinite-slot", "nan-cpu-cap", "nan-time-limit", "negative-gap",
        "nan-rho", "negative-rho", "zero-nu"])
def test_non_finite_or_negative_number_exits_1(tmp_path, doc, grid, message,
                                               capsys):
    scenario = write_json(tmp_path / "s.json", doc)
    argv = ["plan", "--scenario", scenario, "--out", str(tmp_path / "out")]
    if grid is not None:
        argv = ["sweep", "--sweep", write_json(tmp_path / "g.json", grid),
                *argv[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "nan", "non-finite value"),
    ("--time-limit", "x", "expected a number, got 'x'"),
    ("--gap", "-1", "must be >= 0, got -1.0"),
], ids=["nan-time-limit", "text-time-limit", "negative-gap"])
def test_bad_limit_flag_is_usage_error(scenario, flag, value, message,
                                       capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--scenario", scenario, flag, value])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"ricplan plan: error: argument {flag}: {message}\n")


@pytest.mark.parametrize("text, message", [
    ('{"kpi": {"sm-mr": 5}}', "kpi.sm-mr: expected an object"),
    ('{"sigma": {"A": {"1.0": 3}}}', "sigma.A.1.0: expected an object"),
    ('{"kpi": }', "{path}: not valid JSON (Expecting value: line 1 column 9 "
                  "(char 8))"),
], ids=["kpi-not-an-object", "sigma-not-an-object", "broken-json"])
def test_malformed_calibration_exits_1(tmp_path, scenario, text, message,
                                       capsys):
    cal = tmp_path / "cal.json"
    cal.write_text(text)
    rc = main(["plan", "--scenario", scenario, "--calibration", str(cal),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {message.format(path=cal)}\n"


@pytest.mark.parametrize("command", ["feasibility", "sweep"])
def test_uncalibrated_grid_point_is_noted_and_left_blank(tmp_path, scenario,
                                                         command, capsys):
    # the shipped calibration has no sm-mr row at 5 MB
    sweep = write_json(tmp_path / "grid.json",
                       sweep_doc(rho_list_mb=[1.0, 5.0]))
    out = tmp_path / "out"
    assert main([command, "--scenario", scenario, "--sweep", sweep,
                 "--out", str(out)]) == 0
    note = ("note: no calibration for sm-mr at rho=5.0 MB, nu=1.0 s (no "
            "calibration entry for kpi.sm-mr.rho=5.0); skipping\n")
    # one note per sweep, though both populations of the point are blank
    assert capsys.readouterr().err == note
    lines = (out / f"{command}.csv").read_text().splitlines()
    assert [l.split(",")[5] for l in lines[1:3]] == ["true", "true"]
    assert lines[3:] == ["sm-mr,A,5,1,4,,,,,", "sm-mr,A,5,1,10,,,,,"]


def test_sweep_deterministic_bytes(tmp_path, scenario):
    sweep = write_json(tmp_path / "grid.json", sweep_doc())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["sweep", "--scenario", scenario, "--sweep", sweep,
                     "--out", str(out), "--solver", "greedy"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_validate_round_trip(tmp_path, scenario, capsys):
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["validate", "--scenario", scenario,
               "--plan", str(out / "plan.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_hand_edit_exits_3(tmp_path, scenario, capsys):
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "plan.json").read_text())
    # reroute one migration onto a server the plan powers down
    doc["x"]["A"][1][0] -= 1
    doc["x"]["A"][1][1] += 1
    edited = write_json(tmp_path / "edited.json", doc)
    rc = main(["validate", "--scenario", scenario, "--plan", edited])
    assert rc == 3
    assert "violated (17)" in capsys.readouterr().out


@pytest.fixture
def plan_doc(tmp_path, scenario, capsys):
    """The plan `ricplan plan` writes for `scenario`: x[A] is
    [[3, 0, 0, 0, 0], [3, 0, 0, 0, 0], [2, 0, 0, 0, 0], [2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0]] and mu [1, 0, 0, 0]."""
    out = tmp_path / "out"
    assert main(["plan", "--scenario", scenario, "--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads((out / "plan.json").read_text())


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["mu"].__setitem__(1, 0.6),
     "plan.mu[1]: expected an integer, got 0.6"),
    (lambda doc: doc["x"]["A"][0].__setitem__(0, 3.9),
     "plan.x[A][0][0]: expected an integer, got 3.9"),
    (lambda doc: doc["x"]["A"][0].__setitem__(0, "3"),
     "plan.x[A][0][0]: expected an integer, got '3'"),
    # past the float range, as for every number
    (lambda doc: doc["x"]["A"][0].__setitem__(0, 10 ** 400),
     "plan.x[A][0][0]: non-finite value"),
], ids=["fractional-mu", "fractional-count", "string-count", "huge-count"])
def test_validate_non_integer_plan_exits_1(tmp_path, scenario, plan_doc,
                                           capsys, edit, message):
    # truncating these entries would yield the valid plan the file came from
    edit(plan_doc)
    edited = write_json(tmp_path / "edited.json", plan_doc)
    rc = main(["validate", "--scenario", scenario, "--plan", edited])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_unreadable_plan_exits_1(tmp_path, scenario, capsys):
    missing = tmp_path / "nope.json"
    rc = main(["validate", "--scenario", scenario, "--plan", str(missing)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: "
        f"'{missing}'\n")


@pytest.mark.parametrize("text, message", [
    ('{"mu": }', "{path}: not valid JSON (Expecting value: line 1 column 8 "
                 "(char 7))"),
    ("[1, 2]", "{path}: top level must be an object"),
    (None, "plan: unknown key(s) 'bogus'"),
], ids=["broken-json", "top-level-list", "unknown-key"])
def test_malformed_plan_exits_1(tmp_path, scenario, plan_doc, text, message,
                                capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(text or json.dumps(dict(plan_doc, bogus=1)))
    rc = main(["validate", "--scenario", scenario, "--plan", str(plan)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(path=plan)}\n"


def test_validate_negative_count_exits_3(tmp_path, scenario, plan_doc,
                                         capsys):
    # a negative count is well-formed JSON: the validator judges it
    plan_doc["x"]["A"][0][2:4] = [1, -1]
    edited = write_json(tmp_path / "edited.json", plan_doc)
    rc = main(["validate", "--scenario", scenario, "--plan", edited])
    assert rc == 3
    assert capsys.readouterr().out == \
        "violated (19): negative migration count in class A\n"


def test_validate_prints_every_breach_under_its_tag(tmp_path, capsys):
    # (12) breaks twice and (17) once: one line each, in the checks' order
    classes = [{"id": c, "msg_size": 100.0, "msg_period": 1.0} for c in "AB"]
    doc = low_load_doc(classes=classes, servers=low_load_doc()["servers"][:2],
                       initial_counts={"A": [2, 1], "B": [1, 1]})
    scenario = write_json(tmp_path / "scenario.json", doc)
    plan = write_json(tmp_path / "plan.json", {
        "mu": [1, 0],
        "x": {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
              "B": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}})
    rc = main(["validate", "--scenario", scenario, "--plan", plan])
    assert rc == 3
    assert capsys.readouterr().out == (
        "violated (12): class A row s1 does not sum to its count\n"
        "violated (12): class B row s2 does not sum to its count\n"
        "violated (17): s2 hosts 1 xApps while off\n")


def test_fit_exact_line(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,0\n10,105.5\n20,211.0\n")
    rc = main(["fit", "--measurements", str(csv_path),
               "--label", "kpi.sm-mr.1.0.d"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == 10.55
    assert abs(doc["intercept"]) < 1e-9
    assert abs(doc["rms"]) < 1e-9
    assert doc["fragment"]["kpi"]["sm-mr"]["1.0"]["delta_d"] == 10.55


def test_fit_sigma_label(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,0\n1,16.62\n2,33.24\n")
    rc = main(["fit", "--measurements", str(csv_path),
               "--label", "sigma.A.1.0.1.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isclose(doc["slope"], 16.62, rel_tol=1e-9)


def test_fit_single_row_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n1,2\n")
    rc = main(["fit", "--measurements", str(csv_path),
               "--label", "kpi.sm-mr.1.0.d"])
    assert rc == 2
    assert "degenerate" in capsys.readouterr().err.lower()


def test_fit_duplicate_predictors_exit_2(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n1,2\n1,3\n")
    rc = main(["fit", "--measurements", str(csv_path),
               "--label", "kpi.sm-mr.1.0.d"])
    assert rc == 2


def test_fit_bad_label_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,0\n1,1\n")
    rc = main(["fit", "--measurements", str(csv_path), "--label", "nonsense"])
    assert rc == 1
    assert "label" in capsys.readouterr().err


# each label's coefficient, as calibration.lookup finds it
_FITTED = {
    "kpi.sm-mr.1.0.d": ("sm-mr", 1.0, "delta_d"),
    "kpi.sdl.*.m": ("sdl", "*", "delta_m"),
    "sigma.A.1.0.1.0": ("A", 1.0, 1.0),
    "sdl_linear.A.E": ("A", "E", "delta"),
}


@pytest.mark.parametrize("label", _FITTED)
def test_fit_fragment_loads_back(tmp_path, capsys, label):
    from ricplan import load_calibration
    from ricplan.calibration import lookup
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,1\n10,2\n20,4\n")
    rc = main(["fit", "--measurements", str(csv_path), "--label", label])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    merged = load_calibration(doc["fragment"])
    block = label.split(".")[0]
    assert lookup(merged, block, *_FITTED[label]) == doc["slope"]


@pytest.mark.parametrize("label, response, message", [
    ("kpi.sm-mr.x.d", "0,1\n10,2\n20,4",
     "kpi.sm-mr: bad numeric key 'x'"),
    ("kpi.sm-mr.1.0.d", "0,4\n10,2\n20,1",
     "kpi.sm-mr.1.0.delta_d: slope must be >= 0"),
    ("sigma.A.1.0.1.0", "0,4\n10,2\n20,1",
     "sigma.A.1.0.1.0: must be >= 0, got -0.15"),
], ids=["bad-axis-key", "falling-kpi", "falling-sigma"])
def test_fit_refuses_what_calibration_refuses(tmp_path, capsys, label,
                                              response, message):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(f"predictor,response\n{response}\n")
    rc = main(["fit", "--measurements", str(csv_path), "--label", label])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("label, note", [
    ("kpi.sm-mr.5.0.d",
     "note: the fragment does not load by itself (kpi.sm-mr.5.0: missing "
     "required key 'delta_m'); merge the .d and .m fragments before "
     "--calibration\n"),
    ("kpi.sm-mr.1.0.d", ""),
], ids=["new-state-size", "tabulated-state-size"])
def test_fit_notes_a_half_line_that_needs_merging(tmp_path, capsys, label,
                                                  note):
    # half a kpi line loads only where the tables hold the other half
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,1\n10,2\n20,4\n")
    rc = main(["fit", "--measurements", str(csv_path), "--label", label])
    assert rc == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["fragment"]["kpi"]["sm-mr"] == {
        label.split(".", 2)[2][:-2]: {"b_d": 0.833333, "delta_d": 0.15}}
    assert err == note


def test_fit_falling_backend_share_is_accepted(tmp_path, capsys):
    # backend-share slopes may be negative, as in the shipped tables
    from ricplan import load_calibration
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("predictor,response\n0,4\n10,2\n20,1\n")
    rc = main(["fit", "--measurements", str(csv_path),
               "--label", "sdl_linear.A.E"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] < 0
    load_calibration(doc["fragment"])
