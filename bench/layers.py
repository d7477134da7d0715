"""Per-layer metrics: outcome hooks for the tracer and the metric table.

A layer is a dpcolor module.  Work counts and times come from the tracer's
spans; ratios of useful outcomes to attempts come from hooks that look at
each traced call's result.  Names here are the `per_layer` names in
BENCHMARK.json.
"""

from __future__ import annotations

from workloads import CATALOG_LABELS, CORPUS_FILTERS

AUDIT_VERDICTS = ("preconditions-violated", "conservation-violated",
                  "outer-identity-violated", "forced-run-arithmetic-ok",
                  "charge-deficit", "all-nonnegative")
VERDICT_LABELS = ("L8-556", "L6-precolor", "L7-555", "L5-special5")


def make_hooks(counts: dict) -> dict:
    """Tracer hooks keyed by traced name; they add to `counts`."""

    def bump(key, by=1):
        counts[key] = counts.get(key, 0) + by

    def found(key):
        return lambda a, k, result, s: bump(key, result is not None)

    def check_reducible(a, k, verdict, self_s):
        label = a[0].label
        # each strategy counts `enumerated` in its own unit: never summed
        bump(f"reduce.enumerated.{label}", verdict.stats.get("enumerated", 0))
        bump(f"reduce.self_s.{label}", self_s)

    def audit(a, k, rep, s):
        bump("discharge.transfers", len(rep.transfers or ()))
        bump(f"discharge.verdict.{rep.verdict}")

    def random_plane_graph(a, k, pg, s):
        target = a[1] if len(a) > 1 else k["target_n"]
        bump("generate.reached_target", pg.n >= target)
        # every accepted insertion adds one vertex to the starting triangle
        bump("generate.accepted", pg.n - 3)

    return {
        "graphs.find_cycle_of_length": found("graphs.find_cycle.hits"),
        "patterns.contains_butterfly": found(
            "patterns.contains_butterfly.hits"),
        "cover.find_transversal": found("cover.find_transversal.found"),
        "reduce.local_solve": lambda a, k, r, s: bump(
            "reduce.local_solve.unsat", r is None),
        "reduce.check_reducible": check_reducible,
        "clusters.classify_cluster": lambda a, k, cls, s: bump(
            "clusters.classify.catalog", cls.code != 0),
        "discharge.audit": audit,
        "generate.random_plane_graph": random_plane_graph,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile q in [0, 1]."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, counts: dict, untraced: dict) -> dict:
    """name -> value for every per-layer metric.

    counts holds hook and ledger counters of the traced set-up and pass;
    untraced holds the wall times of the untraced pass that the traced run
    is compared against.
    """
    def c(key):
        return counts.get(key, 0)

    def fn(prefix, traced, **ratios):
        calls = tracer.calls(traced)
        out = {f"{prefix}.calls": calls, f"{prefix}.s": tracer.seconds(traced)}
        for name, key in ratios.items():
            out[f"{prefix}.{name}"] = _ratio(c(key), calls)
        return out

    m = {}
    m |= fn("graphs.find_cycle", "graphs.find_cycle_of_length",
            hit_ratio="graphs.find_cycle.hits")
    m |= fn("graphs.contains_pattern", "graphs.contains_pattern")
    m["graphs.plane_graph.builds"] = tracer.calls("graphs.PlaneGraph.__init__")
    m["graphs.plane_graph.s"] = tracer.seconds("graphs.PlaneGraph.__init__")
    m |= fn("patterns.contains_butterfly", "patterns.contains_butterfly",
            hit_ratio="patterns.contains_butterfly.hits")
    m |= fn("cover.find_transversal", "cover.find_transversal",
            found_ratio="cover.find_transversal.found")
    m |= fn("cover.brute_force", "cover.brute_force_transversal")
    for label in CATALOG_LABELS:
        m[f"reduce.enumerated.{label}"] = c(f"reduce.enumerated.{label}")
        m[f"reduce.self_s.{label}"] = float(c(f"reduce.self_s.{label}"))
    m |= fn("reduce.local_solve", "reduce.local_solve",
            unsat_ratio="reduce.local_solve.unsat")
    m["reduce.verify_witness.s"] = tracer.seconds("reduce.verify_witness")
    m |= fn("clusters.extract", "clusters.extract_clusters")
    m |= fn("clusters.classify", "clusters.classify_cluster",
            catalog_ratio="clusters.classify.catalog")
    m |= fn("discharge.audit", "discharge.audit")
    m["discharge.transfers"] = c("discharge.transfers")
    for kind in AUDIT_VERDICTS:
        m[f"discharge.verdict.{kind}"] = c(f"discharge.verdict.{kind}")
    m |= fn("generate.random_plane_graph", "generate.random_plane_graph")
    attempts = tracer.calls("generate.PlaneBuilder.insert_vertex")
    m["generate.insert.attempts"] = attempts
    m["generate.insert.accept_ratio"] = _ratio(c("generate.accepted"),
                                                attempts)
    m["generate.reached_target_ratio"] = _ratio(
        c("generate.reached_target"),
        tracer.calls("generate.random_plane_graph"))
    m["io.ingest.s"] = tracer.seconds("io.ingest_corpus")
    m["io.records.read"] = c("io.records.read")
    m["io.records.skipped"] = c("io.records.skipped")
    for f in CORPUS_FILTERS:
        m[f"io.records.rejected.{f}"] = c(f"io.records.rejected.{f}")
    m["io.bytes_read"] = c("io.bytes_read")
    m["io.bytes_written"] = c("io.bytes_written")
    m["cli.startup_s"] = untraced.get("cli.startup_s", 0.0)
    m["cli.json_bytes"] = untraced.get("cli.json_bytes", 0)
    m["trace.overhead_s"] = untraced["trace.overhead_s"]
    for label in VERDICT_LABELS:
        m[f"verdict_s.{label}"] = untraced.get("verdict_s", {}).get(label, 0.0)
    m["cli_s.L7-555.w2"] = untraced.get("cli_s", 0.0)
    graph_ms = untraced.get("graph_ms") or [0.0]
    m["graph_ms.p50"] = percentile(graph_ms, 0.50)
    # the highest percentile with at least ten of a pass's ~150 graphs
    # beyond it
    m["graph_ms.p90"] = percentile(graph_ms, 0.90)
    return m
