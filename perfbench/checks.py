"""Output checks for each planned scenario, and the exact-count ledger.

Every plan is checked outside the timed region; the oracle and the ledger
run after the timed part, so their memory stays out of the peak RSS:
- `ricplan plan` exited 0 and wrote report.json and plan.json;
- plan.json re-parses and passes `validate_plan`;
- `model.cluster_energy` of the re-parsed plan matches the solver's objective
  to 1e-9 relative, and the 6-digit artifact value to its precision;
- lower bound <= objective, and `mip_gap` agrees with both;
- the status agrees with the gap (optimal is closed, gap_reached is within
  the target) and `energy_gain` agrees with the baseline;
- on oracle workloads, the objective equals `solve_bruteforce`'s optimum.
"""

import json
import math
import os

from ricplan import (
    MigrationPlan,
    build_problem,
    default_calibration,
    model,
    parse_scenario,
    solve_bruteforce,
    validate_plan,
)
from ricplan.orchestrator import apply_undeployments

CERTIFIED = ("optimal", "gap_reached")
STATUSES = CERTIFIED + ("time_limit",)
ARTIFACT_REL = 5e-6  # artifacts keep 6 significant digits


def _close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


class Checker:
    """Checks the plans of one scenario set."""

    def __init__(self, scenario_paths, gap_target, oracle):
        self.paths = scenario_paths
        self.gap_target = gap_target
        self.oracle = oracle
        self.cal = default_calibration()
        self._optima = {}
        self._problems = {}

    def problem(self, index):
        """The problem of scenario `index`, built once by the benchmark."""
        if index not in self._problems:
            scen = parse_scenario(str(self.paths[index]))
            state = scen.state
            if any(state.pending_undeploys.get(c, 0) for c in state.classes):
                state = apply_undeployments(state)
            self._problems[index] = build_problem(state, scen.params,
                                                  self.cal)
        return self._problems[index]

    def check(self, index, code, slot, out_dir):
        """Messages for every failed check; empty when the plan is sound."""
        if code != 0:
            return [f"ricplan plan exited {code}"]
        if slot is None or slot.plan is None:
            return ["no plan returned"]
        try:
            report_doc = json.loads((out_dir / "report.json").read_text())
            plan = MigrationPlan.from_dict(
                json.loads((out_dir / "plan.json").read_text()))
        except (OSError, ValueError) as exc:
            return [f"artifacts unreadable: {exc}"]

        errors = []
        problem = self.problem(index)
        verdict = validate_plan(problem, plan)
        if not verdict.valid:
            errors.append(f"plan.json invalid: {verdict.violations}")
        report = slot.report
        obj, lb, gap = report.objective, report.lower_bound, report.mip_gap
        energy = model.cluster_energy(plan, problem.state, problem.params,
                                      problem.cal).total
        if not _close(energy, obj):
            errors.append(f"objective {obj!r} != recomputed {energy!r}")
        if not _close(energy, report_doc["objective_j"], ARTIFACT_REL):
            errors.append(f"report objective_j {report_doc['objective_j']} "
                          f"!= recomputed {energy!r}")
        if not lb <= obj * (1 + 1e-9):
            errors.append(f"lower bound {lb!r} above objective {obj!r}")
        if not _close(gap, max(0.0, obj - lb) / max(obj, 1e-12)):
            errors.append(f"mip_gap {gap!r} disagrees with bound and objective")
        if report.status not in STATUSES:
            errors.append(f"unexpected status {report.status!r}")
        elif report.status == "optimal" and gap > 1e-9:
            errors.append(f"optimal with open gap {gap!r}")
        elif report.status == "gap_reached" and gap > self.gap_target:
            errors.append(f"gap_reached with gap {gap!r}")
        if slot.baseline_energy:
            gain = 1.0 - energy / slot.baseline_energy
            if not math.isclose(slot.energy_gain, gain, abs_tol=1e-9) or \
                    not _close(report_doc["energy_gain"], slot.energy_gain,
                               ARTIFACT_REL):
                errors.append(f"energy_gain {slot.energy_gain!r} disagrees "
                              f"with baseline {slot.baseline_energy!r}")
        return errors

    def settle(self, records, ledger):
        """Checks that need the whole run, made after its timed part: the
        oracle optimum of each scenario and the exact-count ledger."""
        for r in records:
            if r["status"] is None:
                continue
            if self.oracle:
                optimum = self._optimum(r["index"])
                if optimum is None or not _close(r["objective"], optimum):
                    r["errors"].append(f"objective {r['objective']!r} != "
                                       f"oracle optimum {optimum!r}")
            r["errors"] += ledger.check(r["key"], {
                "status": r["status"], "objective": repr(r["objective"]),
                "nodes": r["nodes"], "lp_calls": r["lp_calls"]})

    def _optimum(self, index):
        if index not in self._optima:
            plan, _ = solve_bruteforce(self.problem(index))
            self._optima[index] = None if plan is None else plan.energy_total
        return self._optima[index]


class CountLedger:
    """Exact counts of certified plans, kept across passes and runs.

    A plan that stops optimal or at the gap target must repeat its status,
    objective, node count and LP-call count on every run of the same code.
    Deadline-stopped plans follow the clock and are not recorded.  The
    ledger file is keyed by a hash of the program and benchmark sources, so
    runs of different code never meet in one file.
    """

    FIELDS = ("status", "objective", "nodes", "lp_calls")

    def __init__(self, path):
        self.path = path
        try:
            self.entries = json.loads(path.read_text())
        except FileNotFoundError:
            self.entries = {}

    def check(self, key, record):
        """Compare a certified plan's record; None fields are unknown."""
        if record["status"] not in CERTIFIED:
            return []
        known = self.entries.setdefault(key, {})
        errors = []
        for field in self.FIELDS:
            value = record.get(field)
            if value is None:
                continue
            if field not in known:
                known[field] = value
            elif known[field] != value:
                errors.append(f"{field} {value!r} differs from "
                              f"{known[field]!r} in an earlier plan")
        return errors

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(tmp, self.path)
