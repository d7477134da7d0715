"""Reader fuzzing: mutated inputs never reach a Python traceback.

Each example takes one input, applies a few mutations (delete or retype a
key, change an integer, duplicate or drop a list entry) and runs verbs that
read it in-process: the graph readers on every shipped asset, and the
solver, the witness check and a budgeted reducibility check on the cover
and cluster assets and on small configurations of every strategy.  Each
run must end in exit 0, or in exit 1 with a message that starts with
"error: "; any other exit or exception fails the test.  The seeds are
fixed, so the examples are the same on every run.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ASSETS
from dpcolor import cli

ASSET_FILES = sorted(ASSETS.glob("*.json"))

PATH = {"n": 3, "edges": [[0, 1], [1, 2]], "floors": [2, 2, 2]}
STAR = {"n": 5, "edges": [[0, 1], [0, 4], [1, 4], [2, 4], [3, 4]],
        "floors": [2, 2, 2, 2, 4]}
# one small configuration per strategy; the first carries every optional
# field, so that mutations reach each field's reader
CONFIGS = [
    {**PATH, "label": "path", "names": {"u": 0}, "tree": [[0, 1]],
     "strategy": "product", "expect": "REDUCIBLE", "note": ""},
    {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
     "floors": [4, 2, 3, 3], "strategy": "margin", "margin_vertex": 0},
    {**PATH, "floors": [2, 3, 2], "strategy": "condition", "cut": 1},
    {**STAR, "tree": [[0, 1]], "strategy": "eliminate", "pivot": 4},
]
SOLVER_INPUTS = [json.loads(f.read_text()) for f in ASSET_FILES
                 if f.stem in ("ce6", "ce7") or f.stem.startswith("cluster")]

# Integers stay small: a vertex count is allocated, and a huge one would
# test memory, not the reader.
INTS = st.integers(-3, 40)
RETYPED = st.sampled_from([None, "x", "3", 1.5, True, [], {}, [[0, 1]]])


def _slots(data, path=()):
    """(path, value) of every node below the top level, depth first."""
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _slots(value, path + (key,))


def _mutate(data, draw):
    """One mutation of `data`, in place.  Values are copied in, so that no
    two nodes, and no two examples, share a list or a dict."""
    slots = list(_slots(data))
    if not slots:
        return
    path, value = slots[draw(st.integers(0, len(slots) - 1))]
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = draw(st.sampled_from(["delete", "retype", "int", "duplicate"]))
    if kind == "delete":  # a dict key, or a list entry dropped
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(draw(RETYPED))
    elif kind == "int" and type(value) is int:
        parent[key] = draw(INTS)
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))


def _run(argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    else:
        json.loads(out.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20261022)
@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(ASSET_FILES), st.integers(1, 3), st.data())
def test_mutated_assets_end_in_a_report_or_an_error(workdir, asset, count,
                                                    data):
    record = json.loads(asset.read_text())
    for _ in range(count):
        _mutate(record, data.draw)
    graph = workdir / "graph.json"
    graph.write_text(json.dumps(record))
    corpus = workdir / "corpus.txt"
    corpus.write_text(json.dumps(record) + "\n")
    _run(["detect", str(graph)])
    _run(["discharge", "audit", str(graph), "--force-rules"])
    _run(["corpus", str(corpus)])


@seed(20261023)
@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(SOLVER_INPUTS + CONFIGS), st.integers(1, 3),
       st.data())
def test_mutated_covers_and_configurations_end_in_a_report_or_an_error(
        workdir, record, count, data):
    record = copy.deepcopy(record)
    for _ in range(count):
        _mutate(record, data.draw)
    path = workdir / "input.json"
    path.write_text(json.dumps(record))
    _run(["solve", str(path)])
    _run(["witness-verify", str(path)])
    _run(["reduce-check", "--config", str(path), "--budget", "200"])
