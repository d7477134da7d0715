"""The benchmark workloads: catalog and corpus.

Each workload has a set-up step that makes its inputs and a pass that does
the measured work.  Both call only public dpcolor functions.  A `Ledger`
counts operations, failures and wrong outputs; the benchmark's own checks
run inside `ledger.untimed()`, which keeps them out of every timing and out
of the trace.  An operation is one catalog verdict, one CLI run, one corpus
record (with every analysis of a record that passes the filters), one torus
cover or one check of the benchmark's own, so a pass attempts the same
number of operations whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Calls go through the module objects, so that the tracer's wrappers, which
# replace module attributes, see them.
from dpcolor import clusters as cl
from dpcolor import cover as cv
from dpcolor import discharge as dc
from dpcolor import generate as gen
from dpcolor import graphs as gr
from dpcolor import io as dio
from dpcolor import reduce as rd

K = 4
CATALOG_LABELS = ("L2", "L4-diamond", "L5-special5", "L6-precolor", "L7-555",
                  "L8-556", "CE-6", "CE-7")
CORPUS_FILTERS = ("no-7-cycles", "no-butterfly")
# One malformed record per reader error the corpus stream skips: a
# plantri-style line with too few groups, a loop, a rotation that does not
# list the neighbours, and truncated JSON.
MALFORMED = (
    "5 bc,ac,ab",
    '{"n": 3, "edges": [[0, 1], [1, 1]]}',
    '{"n": 3, "edges": [[0, 1]], "rotation": {"0": [1], "1": [0], "2": [1]}}',
    '{"n": 3, "edges": [[0, 1], [1, 2]',
)
PLANAR_CODE_MAX_N = 26  # one letter per vertex
CLI_REPEATS = 3  # CLI timings are medians of this many subprocess runs


class Ledger:
    """Operation counts, failures, wrong outputs and layer counters of a run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.raised: list[str] = []  # errors without their messages
        self.counts: dict[str, float] = {}
        self.untimed_s = 0.0

    def ok(self) -> None:
        self.attempted += 1

    def error(self, what: str, exc: BaseException) -> None:
        """An operation that raised: a failure, not a wrong output."""
        self.attempted += 1
        self.failed += 1
        self.raised.append(f"{what}: {type(exc).__name__}")
        self.errors.append(f"{self.raised[-1]}: {exc}")

    def expect(self, cond: bool, what: str) -> bool:
        """A checked output; a false check is a failed operation."""
        self.attempted += 1
        if not cond:
            self.failed += 1
            self.wrong.append(what)
        return cond

    @contextmanager
    def operation(self):
        """Checks and errors inside count as one operation, failed if any fails."""
        attempted, failed = self.attempted, self.failed
        try:
            yield
        finally:
            self.failed = failed + (self.failed > failed)
            self.attempted = attempted + 1

    def absorb(self, other: "Ledger") -> None:
        """Takes over another ledger's operations, failures and errors."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors += other.errors
        self.raised += other.raised

    def outcome(self) -> tuple:
        """What a repeat of the same work must reproduce exactly."""
        return (self.attempted, self.failed, tuple(self.wrong),
                tuple(self.raised))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def untimed(self):
        """Benchmark-side work: excluded from pass times and from the trace."""
        t0 = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.paused():
                yield
        self.untimed_s += time.perf_counter() - t0


def sha256_of(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# catalog


class Catalog:
    """All eight catalog verdicts in-process, then the CLI as a subprocess."""

    name = "catalog"
    seeded = False

    def __init__(self, seed: int, root: Path, work: Path,
                 labels=CATALOG_LABELS):
        self.root = root
        self.labels = labels
        self.configs = None

    def setup(self, ledger: Ledger) -> str:
        self.configs = rd.config_catalog()
        return sha256_of(sorted(self.configs))

    def run(self, ledger: Ledger) -> dict:
        verdict_s = {}
        outputs = []
        for label in self.labels:
            with ledger.operation():
                self._verdict(ledger, label, verdict_s, outputs)
        return {"verdict_s": verdict_s, "pass_s": sum(verdict_s.values()),
                "digest": sha256_of(outputs)}

    def _verdict(self, ledger: Ledger, label: str, verdict_s: dict,
                 outputs: list) -> None:
        """One catalog verdict, timed, then checked."""
        cfg = self.configs[label]
        t0 = time.perf_counter()
        try:
            v = rd.check_reducible(cfg, mode="full")
        except Exception as exc:  # a crash is a failed operation
            ledger.error(f"check {label}", exc)
            return
        verdict_s[label] = time.perf_counter() - t0
        with ledger.untimed():
            ok = ledger.expect(v.status == cfg.expect,
                               f"{label}: {v.status} != {cfg.expect}")
            witness = None
            if ok and v.status == rd.NOT_REDUCIBLE:
                if ledger.expect(
                        v.witness is not None
                        and cv.brute_force_transversal(v.witness) is None,
                        f"{label}: witness not re-proved by brute force"):
                    witness = dio.cover_to_dict(v.witness)
            outputs.append((label, v.status, witness))

    def _cli(self, ledger: Ledger, label: str, workers: int):
        """One `dpcolor reduce-check` subprocess: (wall seconds, stdout bytes)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "dpcolor.cli", "reduce-check",
               "--lemma", label, "--workers", str(workers)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, timeout=120,
                                  capture_output=True)
        except subprocess.SubprocessError as exc:
            ledger.error(f"cli {label} w{workers}", exc)
            return None
        wall = time.perf_counter() - t0
        with ledger.untimed():
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                report = {}
            ledger.expect(
                proc.returncode == 0 and report.get("status") == "REDUCIBLE"
                and report.get("label") == label,
                f"cli {label} w{workers}: exit {proc.returncode}, "
                f"status {report.get('status')}")
        return wall, len(proc.stdout)

    def run_cli(self, ledger: Ledger) -> dict:
        """Start-up of a trivial verb, then L7-555 with a two-worker pool."""
        startup, wall, out_bytes = [], [], []
        for _ in range(CLI_REPEATS):
            r = self._cli(ledger, "L2", 1)
            if r:
                startup.append(r[0])
            r = self._cli(ledger, "L7-555", 2)
            if r:
                wall.append(r[0])
                out_bytes.append(r[1])
        return {
            "startup_s": statistics.median(startup) if startup else 0.0,
            "cli_s": statistics.median(wall) if wall else 0.0,
            "json_bytes": out_bytes[0] if out_bytes else 0,
        }


# ---------------------------------------------------------------------------
# corpus


def planar_code_line(pg: gr.PlaneGraph) -> str:
    """The plantri-style ASCII record that io.parse_planar_code_line reads."""
    groups = ("".join(chr(ord("a") + u) for u in rot) for rot in pg.rotation)
    return f"{pg.n} {','.join(groups)}"


def random_cover(g: gr.Graph, rng: random.Random) -> cv.CoverInstance:
    """A DP cover of g: a random matching on every edge, full lists."""
    sigma = {}
    for e in sorted(g.edges):
        perm = list(range(1, K + 1))
        rng.shuffle(perm)
        sigma[e] = tuple(perm)
    full = frozenset(range(1, K + 1))
    return cv.CoverInstance(g, K, tuple(full for _ in range(g.n)), sigma)


def torus_cover(side: int, rng: random.Random) -> cv.CoverInstance:
    """A DP cover of the side x side 4-regular torus grid."""
    edges = set()
    for r in range(side):
        for c in range(side):
            v = r * side + c
            for w in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                edges.add((min(v, w), max(v, w)))
    return random_cover(gr.Graph.from_edges(side * side, sorted(edges)), rng)


def precolor_triangle(pg: gr.PlaneGraph):
    """The outer face when it is a triangle, else the first interior 3-face."""
    outer = pg.faces[pg.outer_face]
    if outer.degree == 3:
        return sorted(outer.walk)
    for f in pg.interior_faces():
        if f.degree == 3:
            return sorted(f.walk)
    return None


def outer_account(pg: gr.PlaneGraph) -> int:
    """The outer face's final charge in whole units, from the rules alone.

    It starts at d(C) + 4, absorbs d(v) - 4 from each boundary vertex (R5)
    and pays 1 to each interior 3-face touching C.  For a triangle this is
    discharge.outer_identity's closed form 1 + e - f3.  A plantri-style
    record carries no outer face, so the reader makes the largest face
    outer; that closed form does not hold there, and the audit then reports
    outer-identity-violated although the ledger is exact.
    """
    walk = pg.faces[pg.outer_face].walk
    if len(walk) == 3:
        return dc.outer_identity(pg)["value"]
    on_c = set(walk)
    f3 = sum(1 for f in pg.interior_faces()
             if f.degree == 3 and any(v in on_c for v in f.walk))
    return len(walk) + 4 + sum(pg.graph.degree(v) - 4 for v in on_c) - f3


def transversal_ok(inst: cv.CoverInstance, t: dict, pre: dict) -> bool:
    return (set(t) == set(range(inst.graph.n)) and cv.is_independent(inst, t)
            and all(t[v] == c for v, c in pre.items()))


class Corpus:
    """A seeded mixed corpus streamed through ingest, analysis per graph."""

    name = "corpus"
    seeded = True

    def __init__(self, seed: int, root: Path, work: Path, in_class: int = 150,
                 out_class: int = 75, covers: int = 3,
                 torus_sides=(10, 20, 30, 40)):
        self.seed = seed
        self.path = work / f"corpus-{seed}.txt"
        self.in_class = in_class
        self.out_class = out_class
        self.covers = covers
        self.torus_sides = torus_sides
        self.tori = []
        self.composition = {}

    def setup(self, ledger: Ledger) -> str:
        rng = random.Random(f"corpus/{self.seed}")
        members = gen.generate_corpus(
            self.in_class, seed=rng.randrange(2**31), min_n=6, max_n=16)
        others = [
            gen.random_plane_graph(rng.randrange(2**31), rng.randint(16, 48),
                                   forbid=())
            for _ in range(self.out_class)
        ]
        lines = [
            planar_code_line(pg) if pg.n <= PLANAR_CODE_MAX_N
            else json.dumps(dio.graph_to_dict(pg))
            for pg in members + others
        ]
        for bad in MALFORMED:
            lines.insert(rng.randrange(len(lines) + 1), bad)
        data = ("\n".join(lines) + "\n").encode()
        self.path.write_bytes(data)
        ledger.add("io.bytes_written", len(data))
        self.tori = [
            torus_cover(side, random.Random(f"torus/{self.seed}/{side}"))
            for side in self.torus_sides
        ]
        self.composition = {
            "in_class": len(members), "out_of_class": len(others),
            "malformed": len(MALFORMED),
            "planar_code_lines": sum(pg.n <= PLANAR_CODE_MAX_N
                                     for pg in members + others),
        }
        return hashlib.sha256(data).hexdigest()

    def _analyse(self, ledger: Ledger, index: int, pg: gr.PlaneGraph,
                 out: list):
        """All analyses of one passing graph; results go to `out`."""
        try:
            codes = [cl.classify_cluster(pg, c).code
                     for c in cl.extract_clusters(pg)]
            out.append(("clusters", codes))
        except Exception as exc:
            ledger.error(f"clusters #{index}", exc)
        try:
            out.append(("audit", dc.audit(pg, force_rules=True)))
        except Exception as exc:
            ledger.error(f"audit #{index}", exc)
        try:
            inst = cv.CoverInstance.straight(pg.graph, K)
            out.append(("solve", inst, {}, cv.find_transversal(inst)))
        except Exception as exc:
            ledger.error(f"straight solve #{index}", exc)
        tri = precolor_triangle(pg)
        if tri is None:
            return
        for j in range(self.covers):
            with ledger.untimed():
                inst = random_cover(
                    pg.graph, random.Random(f"cover/{self.seed}/{index}/{j}"))
            for combo in itertools.product(range(1, K + 1), repeat=3):
                pre = dict(zip(tri, combo))
                try:
                    if cv.is_independent(inst, pre):
                        out.append(("solve", inst, pre,
                                    cv.find_transversal(inst, pre)))
                except Exception as exc:
                    ledger.error(f"extend #{index} cover {j}", exc)

    def _check(self, ledger: Ledger, index: int, pg: gr.PlaneGraph,
               results: list) -> list:
        """Checks one graph's results; returns their digestible form."""
        summary = [pg.n, pg.graph.m]
        for r in results:
            if r[0] == "clusters":
                ledger.ok()
                summary.append(r[1])
            elif r[0] == "audit":
                rep = r[1]
                ok = ledger.expect(
                    rep.accounts is not None
                    and sum(rep.accounts.values()) == 0
                    and rep.accounts[dc.OUTER] == 4 * outer_account(pg),
                    f"graph #{index}: ledger not exact")
                if ok:
                    summary.append((rep.verdict, sorted(
                        rep.accounts.items(), key=lambda kv: str(kv[0]))))
            else:
                _, inst, pre, t = r
                if t is not None:
                    ledger.expect(transversal_ok(inst, t, pre),
                                  f"graph #{index}: bad transversal for {pre}")
                else:
                    ledger.ok()
                summary.append(None if t is None else sorted(t.items()))
        return summary

    def run(self, ledger: Ledger) -> dict:
        stats = dio.CorpusStats()
        summaries = []
        graph_ms = []
        t_pass = time.perf_counter()
        untimed0 = ledger.untimed_s
        stream = dio.ingest_corpus(self.path, CORPUS_FILTERS, stats,
                                   warn=lambda msg: None)
        index = 0
        while True:
            t0 = time.perf_counter()
            u0 = ledger.untimed_s
            try:
                pg = next(stream)
            except StopIteration:
                break
            except Exception as exc:
                ledger.error("corpus stream", exc)
                break
            with ledger.operation():
                results = []
                self._analyse(ledger, index, pg, results)
                graph_ms.append(
                    (time.perf_counter() - t0 - (ledger.untimed_s - u0)) * 1e3)
                with ledger.untimed():
                    summaries.append(self._check(ledger, index, pg, results))
            index += 1
        # Torus results stay out of the digest: a solver that stops failing
        # at n = 1600 must not read as a changed output.
        for inst in self.tori:
            try:
                t = cv.find_transversal(inst)
            except Exception as exc:  # RecursionError at n = 1600
                ledger.error(f"torus n={inst.graph.n}", exc)
                continue
            with ledger.untimed():
                ledger.expect(t is not None and transversal_ok(inst, t, {}),
                              f"torus n={inst.graph.n}: no valid transversal")
        pass_s = time.perf_counter() - t_pass - (ledger.untimed_s - untimed0)
        with ledger.untimed():
            ledger.expect(stats.skipped == len(MALFORMED),
                          f"skipped {stats.skipped} records, "
                          f"planted {len(MALFORMED)}")
            # each record read is one operation; a passing record's
            # operation, counted above, includes all of its analyses
            ledger.attempted += stats.read - index
            ledger.add("io.records.read", stats.read)
            ledger.add("io.records.skipped", stats.skipped)
            for f in CORPUS_FILTERS:
                ledger.add(f"io.records.rejected.{f}",
                           stats.rejected.get(f, 0))
            ledger.add("io.bytes_read", self.path.stat().st_size)
        return {
            "pass_s": pass_s, "graph_ms": graph_ms,
            "digest": sha256_of(summaries),
            "composition": dict(self.composition, read=stats.read,
                                skipped=stats.skipped,
                                rejected=dict(sorted(stats.rejected.items())),
                                passed=index),
        }


WORKLOADS = {w.name: w for w in (Catalog, Corpus)}
