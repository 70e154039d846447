"""Spans around the calls into each layer, and the per-layer metrics.

The traced run replaces, in memory only, the names the callers bind with
timing wrappers.  Each call becomes a span (name, start, end, parent span,
plan id, observation) kept in a list and written out when the run ends.
Self time is a span's duration minus the durations of its child spans.

A wrapped name that no longer exists is reported, and every metric that
needs its spans reads null: a removed layer must never look like a layer
that costs nothing.
"""

import importlib
import json
import sys
from time import perf_counter

ROOT = "cli.main"

# (module, attribute the caller binds, span name, observation of the result)
HOOKS = (
    ("ricplan.cli", "parse_scenario", "scenario.parse", None),
    ("ricplan.cli", "run_timeslot", "orchestrator.run_timeslot", None),
    ("ricplan.cli", "default_calibration", "calibration.load", None),
    ("ricplan.orchestrator", "baseline_energy", "orchestrator.baseline", None),
    ("ricplan.orchestrator", "solve_bnb", "bnb.solve",
     lambda r: (r[1].nodes_explored,
                sum(1 for e in r[1].trace if e[0] == "incumbent"),
                r[1].objective)),
    ("ricplan.orchestrator", "annotate_plan", "problem.annotate", None),
    ("ricplan.bnb", "solve_greedy", "greedy.solve",
     lambda r: None if r[0] is None else r[0].energy_total),
    ("ricplan.bnb", "linprog", "lp.linprog", lambda r: r.status),
    ("ricplan.bnb", "plan_from_aggregates", "problem.plan_from_aggregates",
     None),
    ("ricplan.bnb", "validate_plan", "problem.validate", lambda r: r.valid),
    ("ricplan.bnb", "objective_eval", "problem.objective_eval", None),
    ("ricplan.bnb", "annotate_plan", "problem.annotate", None),
    ("ricplan.problem", "lexmin_transport", "problem.lexmin_transport", None),
    ("ricplan.model", "cluster_energy", "model.cluster_energy", None),
)

LP_INFEASIBLE = 2  # scipy.optimize.linprog status codes; 0 is success


class Tracer:
    """Span recorder; `install` wraps the hooks, `uninstall` restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, plan id, observed]
        self.plan_id = -1
        self.missing = set()  # span names whose hook was not found
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.plan_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        return traced

    def root(self, fn):
        """`fn` wrapped in the root span of the next plan."""
        self.plan_id += 1
        return self.wrap(ROOT, fn)

    def install(self):
        for module_name, attr, name, observe in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                print(f"note: {module_name}.{attr} not found; metrics of "
                      f"layer {name} are reported as null", file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, observe))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, untraced_plan_s):
    """Per-layer metrics from the spans of `tracer`, a pass over every
    scenario, given the untraced mean over the same scenarios of each one's
    median wall time."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls, total_s, self_s, observed = {}, {}, {}, {}
    for i, (name, start, end, _, _, obs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[i])
        observed.setdefault(name, []).append(obs)

    plans = calls.get(ROOT, 0)
    plan_s = total_s.get(ROOT, 0.0)

    def per_plan(x):
        return x / plans if plans else None

    def ratio(a, b):
        return a / b if b else None

    def ms(x):
        return None if x is None else 1e3 * x

    lp_status = observed.get("lp.linprog", [])
    bnb_obs = observed.get("bnb.solve", [])
    greedy_obs = observed.get("greedy.solve", [])
    nodes = sum(o[0] for o in bnb_obs)
    incumbents = sum(o[1] for o in bnb_obs)
    candidates = calls.get("problem.plan_from_aggregates", 0)
    seeded = sum(1 for e in greedy_obs if e is not None)
    # greedy seed energy against the final objective, per plan
    greedy_gaps = []
    by_plan = {}
    for name, _, _, _, plan, obs in spans:
        if name in ("greedy.solve", "bnb.solve"):
            by_plan.setdefault(plan, {})[name] = obs
    for pair in by_plan.values():
        seed, solved = pair.get("greedy.solve"), pair.get("bnb.solve")
        if seed is not None and solved is not None and solved[2]:
            greedy_gaps.append((seed - solved[2]) / solved[2])
    candidate_s = sum(total_s.get(n, 0.0) for n in (
        "problem.plan_from_aggregates", "problem.validate",
        "problem.objective_eval"))
    traced_plan_s = per_plan(plan_s)

    def layer(value, *names):
        return None if tracer.missing.intersection(names) else value

    values = {
        "lp.calls": layer(per_plan(calls.get("lp.linprog", 0)), "lp.linprog"),
        "lp.ms_per_call": layer(
            ms(ratio(total_s.get("lp.linprog", 0.0),
                     calls.get("lp.linprog", 0))), "lp.linprog"),
        "lp.busy_share": layer(
            ratio(total_s.get("lp.linprog", 0.0), plan_s), "lp.linprog"),
        "lp.infeasible": layer(
            per_plan(sum(1 for s in lp_status if s == LP_INFEASIBLE)),
            "lp.linprog"),
        "lp.failed": layer(
            per_plan(sum(1 for s in lp_status if s not in (0, LP_INFEASIBLE))),
            "lp.linprog"),
        "bnb.nodes": layer(per_plan(nodes), "bnb.solve"),
        "bnb.nodes_per_s": layer(
            ratio(nodes, total_s.get("bnb.solve", 0.0)), "bnb.solve"),
        "bnb.self_ms": layer(ms(per_plan(self_s.get("bnb.solve", 0.0))),
                             "bnb.solve", "lp.linprog", "greedy.solve",
                             "problem.plan_from_aggregates",
                             "problem.validate", "problem.objective_eval",
                             "problem.annotate"),
        "bnb.incumbents": layer(per_plan(incumbents), "bnb.solve"),
        "bnb.incumbent_ratio": layer(
            ratio(incumbents - seeded, candidates), "bnb.solve",
            "greedy.solve", "problem.plan_from_aggregates"),
        "problem.candidates": layer(per_plan(candidates),
                                    "problem.plan_from_aggregates"),
        "problem.candidate_ms": layer(
            ms(per_plan(candidate_s)), "problem.plan_from_aggregates",
            "problem.validate", "problem.objective_eval"),
        "problem.valid_ratio": layer(
            ratio(sum(1 for v in observed.get("problem.validate", []) if v),
                  candidates),
            "problem.validate", "problem.plan_from_aggregates"),
        "problem.lexmin_ms": layer(
            ms(per_plan(total_s.get("problem.lexmin_transport", 0.0))),
            "problem.lexmin_transport"),
        "problem.annotate_ms": layer(
            ms(per_plan(total_s.get("problem.annotate", 0.0))),
            "problem.annotate"),
        "model.cluster_energy.calls": layer(
            per_plan(calls.get("model.cluster_energy", 0)),
            "model.cluster_energy"),
        "model.cluster_energy.ms": layer(
            ms(per_plan(total_s.get("model.cluster_energy", 0.0))),
            "model.cluster_energy"),
        "greedy.ms": layer(ms(per_plan(total_s.get("greedy.solve", 0.0))),
                           "greedy.solve"),
        "greedy.gap_to_final": layer(
            sum(greedy_gaps) / len(greedy_gaps) if greedy_gaps else None,
            "greedy.solve", "bnb.solve"),
        "cli.self_ms": layer(ms(per_plan(self_s.get(ROOT, 0.0))),
                             "scenario.parse", "orchestrator.run_timeslot",
                             "calibration.load"),
        "scenario.parse_ms": layer(
            ms(per_plan(total_s.get("scenario.parse", 0.0))),
            "scenario.parse"),
        "orchestrator.baseline_ms": layer(
            ms(per_plan(total_s.get("orchestrator.baseline", 0.0))),
            "orchestrator.baseline"),
        "calibration.load_ms": layer(
            ms(per_plan(total_s.get("calibration.load", 0.0))),
            "calibration.load"),
        "trace.plan_ms": ms(traced_plan_s),
        "trace.untraced_plan_ms": ms(untraced_plan_s),
        "trace.overhead_share": None if traced_plan_s is None
        else traced_plan_s / untraced_plan_s - 1.0,
    }
    return values
