"""Scenario sets of the three planner workloads.

Each workload is a fixed set of scenario JSON texts plus the `ricplan plan`
flags they are planned with; the workload seed only sets the planning order.
Sets drawn afresh per seed made the timing and certification metrics swing
with the draw by more than their bounds (see README.md).

The texts come from the program's own generators (`make_random_scenario.py`
and `ricplan.orchestrator.mix_counts` / `balanced_state`), so a change to the
program can change the inputs.  `fingerprint` hashes a workload's set, and
run.py refuses to report when it differs from the hash recorded in
fingerprints.json.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SMALL_DRAW_SEED = 0  # picks the script seeds of the small-exact draws
GAP = 0.01
# per-plan deadlines: each is about twice the longest certified solve of its
# set (1.7 s on medium-deadline, the 117-xApp instance's 4 s on scale)
MEDIUM_DEADLINE_S = 3.0
SCALE_DEADLINE_S = 8.0
SMALL_POOL = 250
MEDIUM_SCRIPT_SEEDS = range(24)
MEDIUM_FLAGS = ("--servers", "4", "--classes", "3", "--total", "40",
                "--deploys", "3")
SCALE_POPULATIONS = (116, 117, 120)
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def _draw(script_seed, flags=()):
    """One scenario text from make_random_scenario.py, or None if it finds
    no feasible draw for this seed."""
    import make_random_scenario

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = make_random_scenario.main(
            ["--seed", str(script_seed), "--out", "-", *flags])
    return out.getvalue() if code == 0 else None


def _small_exact():
    rng = random.Random(SMALL_DRAW_SEED)
    texts = []
    while len(texts) < SMALL_POOL:
        text = _draw(rng.randrange(2 ** 31))
        if text is not None:
            texts.append(text)
    return texts


def _medium_deadline():
    texts = [_draw(s, MEDIUM_FLAGS) for s in MEDIUM_SCRIPT_SEEDS]
    if None in texts:
        raise RuntimeError("make_random_scenario.py found no draw for a "
                           "medium-deadline seed")
    return texts


def _scale_symmetric():
    """The acceptance-criterion-8 family: 4 identical servers, s1
    mandatory, classes A-D split 75/25 and spread evenly, sm-md at 1 MB."""
    from make_random_scenario import CLASS_DEFS
    from ricplan.model import ServerSpec, XAppClass
    from ricplan.orchestrator import SweepSpec, balanced_state, mix_counts

    classes = tuple(XAppClass(id=c, msg_size=CLASS_DEFS[c][0],
                              msg_period=CLASS_DEFS[c][1]) for c in "ABCD")
    servers = tuple(ServerSpec(id=f"s{i + 1}", optional_flag=i > 0,
                               cpu_cap=128.0, mem_cap=125.0, disk_cap=250.0)
                    for i in range(4))
    spec = SweepSpec(classes=classes, dominant_class="A",
                     count_range=SCALE_POPULATIONS, rho_list_mb=(1.0,),
                     nu_list_s=(1.0,), strategies=("sm-md",))
    texts = []
    for total in SCALE_POPULATIONS:
        state = balanced_state(classes, servers, mix_counts(spec, total))
        doc = {
            "classes": [{"id": c.id, "msg_size": c.msg_size,
                         "msg_period": c.msg_period} for c in classes],
            "servers": [{"id": s.id, "optional": s.optional_flag,
                         "cpu_cap": s.cpu_cap, "mem_cap": s.mem_cap,
                         "disk_cap": s.disk_cap} for s in servers],
            "initial_counts": {c: list(v)
                               for c, v in state.initial_counts.items()},
            "initial_active": list(state.initial_active),
            "params": {"state_size": 1e6, "strategy": "sm-md",
                       "maintenance_period": 1.0},
        }
        texts.append(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return texts


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[], list]  # the scenario texts, in a fixed order
    plan_flags: tuple
    oracle: bool  # compare every objective with solve_bruteforce

    def scenario_texts(self, seed):
        """The scenario texts in the planning order for `seed`."""
        texts = self.make()
        random.Random(seed).shuffle(texts)
        return texts


WORKLOADS = {w.name: w for w in (
    Workload("small-exact", _small_exact, (), oracle=True),
    Workload("medium-deadline", _medium_deadline,
             ("--gap", str(GAP), "--time-limit", str(MEDIUM_DEADLINE_S)),
             oracle=False),
    Workload("scale-symmetric", _scale_symmetric,
             ("--gap", str(GAP), "--time-limit", str(SCALE_DEADLINE_S)),
             oracle=False),
)}


def fingerprint(texts):
    """SHA-256 of a scenario set, independent of its order."""
    digest = hashlib.sha256()
    for text in sorted(texts):
        digest.update(hashlib.sha256(text.encode()).digest())
    return digest.hexdigest()


def recorded_fingerprint(name):
    return json.loads(FINGERPRINTS.read_text()).get(name)
