"""Malformed input never crashes the CLI.

The README's scenario, sweep and calibration examples, with one value (a
leaf or a whole entry) replaced by a NaN, a string, a list, null, an object
or a negative number, must make `cli.main` return an exit code (0, 1 or 2),
never raise.  So must the plan file `ricplan plan` writes for them, with
each of its values replaced in turn, under `ricplan validate` (0, 1 or 3).
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ricplan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = dict(zip(("scenario", "sweep", "calibration"), (
    json.loads(block) for block in
    re.findall(r"```json\n(.*?)```", README.read_text(), re.S))))
REPLACEMENTS = (math.nan, "x", [1.0], None, {"k": 1.0}, -1, -2.5)


def _places(doc, path=()):
    """The path of every value inside `doc`: each leaf and each entry."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    return [place for key, value in items
            for place in [path + (key,), *_places(value, path + (key,))]]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run(work, docs, command):
    """`ricplan plan` (or `feasibility` with the grid) on `docs`."""
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = str(work / f"{kind}.json")
        Path(paths[kind]).write_text(json.dumps(doc))
    grid = ["--sweep", paths["sweep"]] if command == "feasibility" else []
    return main([command, *grid, "--scenario", paths["scenario"],
                 "--calibration", paths["calibration"],
                 "--out", str(work / "out")])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", ["plan", "feasibility"])
def test_readme_examples_run(work, command):
    assert _run(work, EXAMPLES, command) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([(kind, place) for kind, doc in EXAMPLES.items()
                        for place in _places(doc)]),
       st.sampled_from(REPLACEMENTS))
def test_one_bad_value_never_crashes_the_cli(work, case, value):
    kind, place = case
    docs = dict(EXAMPLES, **{kind: _replaced(EXAMPLES[kind], place, value)})
    command = "feasibility" if kind == "sweep" else "plan"
    assert _run(work, docs, command) in (0, 1, 2)


def test_one_bad_plan_value_never_crashes_validate(work):
    work = work / "plan"
    work.mkdir()
    assert _run(work, EXAMPLES, "plan") == 0
    written = work / "out" / "plan.json"
    plan = json.loads(written.read_text())
    argv = ["validate", "--scenario", str(work / "scenario.json"),
            "--calibration", str(work / "calibration.json"), "--plan"]
    assert main([*argv, str(written)]) == 0
    argv.append(str(work / "plan.json"))
    for place in _places(plan):
        for value in REPLACEMENTS:
            (work / "plan.json").write_text(
                json.dumps(_replaced(plan, place, value)))
            assert main(argv) in (0, 1, 3), (place, value)
