"""Planner benchmark: seeded workloads through `ricplan plan`, in process.

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  One process plans the workload's scenarios
one after another through `ricplan.cli.main(["plan", ...])` (closed loop, one
client, no threads), for about `--seconds` of planning: one pass over the
scenario set, then repeat passes over the scenarios that did not stop at the
deadline.  Timings are taken from each scenario's median latency, so a burst
of load on the machine that slows one plan does not move them.  Every plan
is checked (checks.py) outside the timed region.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
metric names and units are those listed in BENCHMARK.json.

--trace 0 reports the end-to-end metrics.  --trace 1 plans half the time
untraced, then one pass with spans around each layer (tracing.py), and
reports the per-layer metrics and the tracing overhead between the two.

Exits 0 when every check passed, 1 when one failed, 2 when the program
sources are missing and 3 when the inputs hash differently from
fingerprints.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import FINGERPRINTS, GAP, WORKLOADS, fingerprint, \
    recorded_fingerprint

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_REPEATS = 2
SETUP_PROBE = """\
import time
t = time.perf_counter()
import ricplan
ricplan.default_calibration()
print(time.perf_counter() - t)
"""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds():
    """Median time a fresh interpreter takes to import ricplan and load
    the calibration tables, which every CLI call pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=SRC,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def source_hash():
    """Hash of the program and benchmark sources, keying the count ledger."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Planner:
    """Plans scenarios through the CLI, times each call, checks the output."""

    def __init__(self, cli, paths, keys, flags, out_dir, checker):
        self.cli, self.paths, self.keys = cli, paths, keys
        self.flags, self.out_dir, self.checker = flags, out_dir, checker
        self.slots = []
        self._run_timeslot = cli.run_timeslot
        self._sink = io.StringIO()

    def __enter__(self):
        # keep the in-memory result so checks see the unrounded numbers
        def capture(*args, **kwargs):
            self.slots.append(self._run_timeslot(*args, **kwargs))
            return self.slots[-1]
        self.cli.run_timeslot = capture
        return self

    def __exit__(self, *exc):
        self.cli.run_timeslot = self._run_timeslot

    def argv(self, index, extra=()):
        return ["plan", "--scenario", str(self.paths[index]),
                "--out", str(self.out_dir), *self.flags, *extra]

    def warm_up(self):
        """One short untimed plan, so lazy imports happen before timing."""
        with contextlib.redirect_stdout(self._sink):
            self.cli.main(self.argv(0, ("--time-limit", "0.1")))

    def plan(self, index, tracer=None):
        """Plan one scenario; returns its record."""
        (self.out_dir / "plan.json").unlink(missing_ok=True)
        self.slots.clear()
        main = self.cli.main
        first_span = 0
        if tracer is not None:
            first_span = len(tracer.spans)
            main = tracer.root(main)
        self._sink.seek(0)
        self._sink.truncate()
        errors = []
        with contextlib.redirect_stdout(self._sink):
            start = perf_counter()
            try:
                code = main(self.argv(index))
            except Exception:  # a crash is a failed plan, not a stop
                code = None
                errors.append(f"raised\n{traceback.format_exc()}")
            latency = perf_counter() - start
        slot = self.slots[-1] if self.slots else None
        if not errors:
            errors = self.checker.check(index, code, slot, self.out_dir)
        record = {"index": index, "key": self.keys[index],
                  "latency": latency, "errors": errors, "status": None}
        if slot is not None and slot.plan is not None:
            report = slot.report
            lp_calls = None
            if tracer is not None and "lp.linprog" not in tracer.missing:
                lp_calls = sum(1 for s in tracer.spans[first_span:]
                               if s[0] == "lp.linprog")
            record.update(status=report.status, objective=report.objective,
                          bound_ratio=report.lower_bound / report.objective,
                          gain=slot.energy_gain,
                          nodes=report.nodes_explored, lp_calls=lp_calls)
        return record

    def first_pass(self, tracer=None):
        """Plan every scenario once, in order."""
        return [self.plan(i, tracer) for i in range(len(self.paths))]

    def passes(self, seconds):
        """The first pass, then repeat passes over the scenarios that did
        not stop at the deadline (the latency of those is the deadline,
        whatever the machine): as many as fill `seconds` at the first
        pass's pace and at least MIN_REPEATS, so the median latency of each
        repeated scenario rests on three or more plans."""
        records = self.first_pass()
        again = [r["index"] for r in records if r["status"] != "time_limit"]
        repeats = 0
        if again:
            first = sum(r["latency"] for r in records)
            pace = sum(records[i]["latency"] for i in again)
            repeats = max(MIN_REPEATS, round((seconds - first) / pace))
        return records + [self.plan(i) for i in again * repeats]


def scenario_latencies(records):
    """Each scenario's median latency over its plans in `records`."""
    by_scenario = {}
    for r in records:
        by_scenario.setdefault(r["index"], []).append(r["latency"])
    return [statistics.median(v) for v in by_scenario.values()]


def end_to_end(records, scenarios, setup_s, peak_rss_mb):
    """The end-to-end metrics.  Timings use each scenario's median latency
    over its plans in the run; outcomes use the first pass, which plans
    every scenario once; failures count every plan attempted."""
    from checks import CERTIFIED

    lat = scenario_latencies(records)
    first = records[:scenarios]
    planned = [r for r in first if r["status"] is not None]
    gains = [r["gain"] for r in planned if r["gain"] is not None]
    failed = sum(1 for r in records if r["errors"])
    return {
        "setup_s": setup_s,
        "plans_per_s": len(lat) / sum(lat),
        "plan_ms_p50": 1e3 * statistics.median(lat),
        "plan_ms_p95": 1e3 * statistics.quantiles(
            lat, n=20, method="inclusive")[18],
        "certified_share": sum(1 for r in planned
                               if r["status"] in CERTIFIED) / len(first),
        "bound_ratio_mean": statistics.mean(
            r["bound_ratio"] for r in planned) if planned else None,
        "energy_gain_mean": statistics.mean(gains) if gains else None,
        "peak_rss_mb": peak_rss_mb,
        "passed_share": 1.0 - failed / len(records),
    }


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ricplan" / "__init__.py").is_file():
        print(f"error: no ricplan sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(ROOT / "scripts")]
    setup_s = None if args.trace else setup_seconds()

    import checks
    import tracing
    from ricplan import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ricplan from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    texts = workload.scenario_texts(args.seed)
    expected = recorded_fingerprint(workload.name)
    got = fingerprint(texts)
    if got != expected:
        print(f"error: inputs of {workload.name} hash to {got}, "
              f"{FINGERPRINTS.name} records {expected}; the program now "
              f"generates other scenarios", file=sys.stderr)
        return 3

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    (work / "out").mkdir(parents=True, exist_ok=True)
    try:
        paths, keys = [], []
        for i, text in enumerate(texts):
            paths.append(work / f"scenario-{i:04d}.json")
            paths[-1].write_text(text)
            keys.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        checker = checks.Checker(paths, GAP, workload.oracle)
        with Planner(cli, paths, keys, workload.plan_flags, work / "out",
                     checker) as planner:
            planner.warm_up()
            records = planner.passes(
                args.seconds / 2 if args.trace else args.seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                untraced_s = statistics.mean(scenario_latencies(records))
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = planner.first_pass(tracer)
                finally:
                    tracer.uninstall()
                records += traced
                tracer.write(WORK / f"spans-{workload.name}-{args.seed}.jsonl")
        ledger = checks.CountLedger(
            WORK / f"ledger-{workload.name}-{source_hash()}.json")
        checker.settle(records, ledger)
        ledger.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in records:
        for message in r["errors"]:
            print(f"FAIL scenario {r['index']} ({r['key']}): {message}",
                  file=sys.stderr)
    if args.trace:
        values = tracing.layer_metrics(tracer, untraced_s)
    else:
        values = end_to_end(records, len(paths), setup_s, peak_rss_mb)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    failed = sum(1 for r in records if r["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
