"""Checks of the benchmark itself, on reduced inputs.

    python3 -m pytest -q bench/test_bench.py

Work counters of a traced run must repeat exactly on the same seed, and the
tracer must leave the package as it found it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import dpcolor.graphs  # noqa: E402
from layers import layer_metrics, make_hooks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Catalog, Corpus, Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "ratio", "B")


def small(name, work):
    if name == "catalog":
        return Catalog(1, ROOT, work, labels=("L2", "L4-diamond", "CE-6"))
    # side 40 gives the n = 1600 torus, whose solver recursion fails
    return Corpus(7, ROOT, work, in_class=8, out_class=4, covers=1,
                  torus_sides=(5, 40))


def traced_run(wl):
    counts = {}
    tracer = Tracer(make_hooks(counts))
    ledger = Ledger(tracer)
    tracer.install()
    try:
        setup_digest = wl.setup(ledger)
        out = wl.run(ledger)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer, counts | ledger.counts,
                            {"trace.overhead_s": 0.0})
    return metrics, (setup_digest, out["digest"]), ledger


@pytest.mark.parametrize("name", ["catalog", "corpus"])
def test_traced_counters_repeat_exactly(name, tmp_path):
    first, digests1, led1 = traced_run(small(name, tmp_path))
    second, digests2, led2 = traced_run(small(name, tmp_path))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in EXACT_UNITS]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert digests1 == digests2
    assert led1.wrong == led2.wrong == []
    assert (led1.attempted, led1.failed) == (led2.attempted, led2.failed)


def test_operation_count_does_not_depend_on_seed(tmp_path):
    counts = []
    for seed in (7, 8):
        wl = Corpus(seed, ROOT, tmp_path, in_class=8, out_class=4, covers=1,
                    torus_sides=(5,))
        ledger = Ledger()
        wl.setup(ledger)
        wl.run(ledger)
        counts.append((ledger.attempted, ledger.failed))
    # 12 records, 1 torus, 1 skipped-record check
    assert counts == [(14, 0), (14, 0)]


def test_torus_recursion_failure_is_counted_once(tmp_path):
    metrics, _, ledger = traced_run(small("corpus", tmp_path))
    assert ledger.failed == 1
    assert ledger.errors[0].startswith("torus n=1600: RecursionError")
    assert metrics["cover.find_transversal.calls"] > 0


def test_tracer_restores_the_package():
    orig = dpcolor.graphs.find_cycle_of_length
    init = dpcolor.graphs.PlaneGraph.__init__
    tracer = Tracer()
    tracer.install()
    assert dpcolor.graphs.find_cycle_of_length is not orig
    tracer.remove()
    assert dpcolor.graphs.find_cycle_of_length is orig
    assert dpcolor.graphs.PlaneGraph.__init__ is init


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        g = dpcolor.graphs.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dpcolor.graphs.has_cycle_of_length(g, 4)
    finally:
        tracer.remove()
    outer = tracer.totals["graphs.has_cycle_of_length"]
    inner = tracer.totals["graphs.find_cycle_of_length"]
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert tracer.edges[("graphs.has_cycle_of_length",
                         "graphs.find_cycle_of_length")] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
