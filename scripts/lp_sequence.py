"""Fingerprint bnb's node-LP sequence on every benchmark scenario.

    python3 scripts/lp_sequence.py

For each scenario of the three perfbench workloads, in the workloads' fixed
order, prints one line: the scenario's name, a hash of the (status,
repr(objective)) sequence of every node LP of its solve, and the solve's
status and node count.  Solves use the workload's gap and a deadline no
scenario reaches, so the output does not depend on the speed of the
machine.  A refactor meant to leave the search unchanged shows it by
identical output in the two checkouts.  A change that only stops gap-target
solves earlier shows up as those lines alone, each with fewer nodes (and,
where a solve now stops before proving optimality, `gap_reached` in place
of `optimal`).
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"),
                str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402  (read only)

from ricplan import bnb, default_calibration  # noqa: E402
from ricplan.orchestrator import run_timeslot  # noqa: E402
from ricplan.problem import SolveLimits  # noqa: E402
from ricplan.scenario import parse_scenario  # noqa: E402

DEADLINE_S = 120.0


def main():
    cal, live, seq = default_calibration(), bnb.linprog, []

    def recording(lp):
        res = live(lp)
        seq.append((res.status, repr(res.fun)))
        return res

    bnb.linprog = recording
    for name, work in WORKLOADS.items():
        flags = dict(zip(work.plan_flags[::2], work.plan_flags[1::2]))
        for i, text in enumerate(work.make()):
            scen = parse_scenario(json.loads(text))
            gap = float(flags.get("--gap", scen.limits.gap_target))
            seq.clear()
            report = run_timeslot(scen.state, scen.params, cal, "bnb",
                                  SolveLimits(DEADLINE_S, gap)).report
            digest = hashlib.sha256(repr(seq).encode()).hexdigest()[:16]
            print(f"{name}[{i}] {digest} {report.status} "
                  f"{report.nodes_explored}", flush=True)


if __name__ == "__main__":
    main()
