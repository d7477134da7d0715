"""Command-line front end: solve, detect, reduce-check, witness-verify,
discharge, corpus.

Every completed run exits 0 regardless of the mathematical verdict; nonzero
exit codes mean operational failure (bad flags, unreadable files).  Reports
are JSON by default, or aligned text tables with --format text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from . import clusters as cl
from . import discharge as dc
from . import io as dio
from . import patterns as pt
from .cover import CoverInstance, find_transversal
from .graphs import PlaneGraph, contains_pattern


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":  # written whole, so a failed report writes nothing
        sys.stdout.write(json.dumps(report, indent=1, default=str) + "\n")
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = "") -> None:
    for key, val in report.items():
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            cols = sorted({c for row in val for c in row})
            widths = {
                c: max(len(c), *(len(str(r.get(c, ""))) for r in val))
                for c in cols
            }
            print(f"{indent}{key}:")
            line = "  ".join(c.ljust(widths[c]) for c in cols)
            print(f"{indent}  {line}")
            for row in val:
                line = "  ".join(
                    str(row.get(c, "")).ljust(widths[c]) for c in cols
                )
                print(f"{indent}  {line}")
        else:
            print(f"{indent}{key}: {val}")


# ---------------------------------------------------------------------------
# verbs


def _parse_precolor(text: Optional[str]) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for part in text.split(","):
        v, _, c = part.partition("=")
        try:
            vertex, color = int(v), int(c)
        except ValueError:
            raise dio.FormatError(
                f"--precolor: malformed entry {part!r}, expected v=c with "
                f"integers v and c") from None
        if vertex in out:
            raise dio.FormatError(
                f"--precolor: vertex {vertex} is precolored twice")
        out[vertex] = color
    return out


def cmd_solve(args) -> dict:
    data = dio._load_json(args.input)
    if isinstance(data, dict) and "sigma" in data:
        if args.matching:
            raise dio.FormatError(
                f"{args.input} carries its own sigma; --matching "
                f"{args.matching} would replace it")
        inst = dio.cover_from_dict(data, args.input)
    else:
        g = dio.graph_from_dict(data, args.input)
        graph = g.graph if isinstance(g, PlaneGraph) else g
        if args.matching:
            k, sigma = dio.sigma_from_dict(
                dio._load_json(args.matching), graph, args.matching)
            inst = CoverInstance(
                graph, k, tuple(frozenset(range(1, k + 1))
                                for _ in range(graph.n)), sigma)
        else:
            inst = CoverInstance.straight(
                graph, 4 if args.k is None else args.k)
    if args.k is not None and args.k != inst.k:
        raise dio.FormatError(
            f"--k {args.k} differs from k = {inst.k} in "
            f"{args.matching or args.input}")
    pre = _parse_precolor(args.precolor)
    t0 = time.monotonic()
    found = find_transversal(inst, pre)
    return {
        "verdict": "FOUND" if found is not None else "NONE",
        "assignment": None if found is None else {
            str(v): c for v, c in sorted(found.items())},
        "k": inst.k,
        "seconds": round(time.monotonic() - t0, 3),
    }


def cmd_detect(args) -> dict:
    g = dio.parse_graph_file(args.input)
    graph = g.graph if isinstance(g, PlaneGraph) else g
    report: dict = {"n": graph.n, "m": graph.m}
    report["seven_cycle"] = pt.FORBIDDEN["7-cycle"](graph)
    bf = pt.FORBIDDEN["butterfly"](graph)
    report["butterfly"] = None if bf is None else dict(sorted(bf.items()))
    if isinstance(g, PlaneGraph):
        report["faces"] = len(g.faces)
        report["clusters"] = [{
            "cluster": info.cluster.id,
            "faces": info.cluster.k,
            "code": info.classification.code,
            "special": info.special,
            "roles": ",".join(f"{r}={v}" for r, v in
                              sorted(info.classification.roles.items())),
            "note": info.classification.reason,
        } for info in dc.cluster_infos(g)]
        report["good_outer_triangle"] = cl.has_good_outer_triangle(g)
    if args.assets:
        found = {}
        for name, pat in sorted(dio.load_assets_dir(args.assets).items()):
            hit = contains_pattern(graph, pat.graph)
            found[name] = None if hit is None else sorted(hit.values())
        report["asset_patterns"] = found
    return report


def cmd_reduce_check(args) -> dict:
    from . import reduce as rd  # numpy loads only when a check runs

    if args.config:
        cfg = dio.parse_config_file(args.config)
    else:
        catalog = rd.config_catalog()
        if args.lemma not in catalog:
            raise dio.FormatError(
                f"unknown configuration {args.lemma!r}; "
                f"choices: {', '.join(sorted(catalog))}")
        cfg = catalog[args.lemma]
    v = rd.check_reducible(cfg, budget=args.budget)
    report = {"label": cfg.label, "status": v.status, **v.stats,
              "seconds": round(v.stats["seconds"], 3)}
    if v.witness is not None:
        report["witness"] = dio.cover_to_dict(v.witness)
        if args.save_witness:
            dio.write_cover_file(args.save_witness, v.witness)
            report["witness_file"] = args.save_witness
    return report


def cmd_witness_verify(args) -> dict:
    inst = dio.parse_cover_file(args.input)
    t0 = time.monotonic()
    confirmed = find_transversal(inst) is None
    return {
        "status": "CONFIRMED" if confirmed else "REFUTED",
        "transversal_exists": not confirmed,
        # the number of complete assignments, as a base-2 logarithm: with
        # thousands of full lists it has more digits than JSON writers take
        "candidates_log2": round(sum(math.log2(max(1, len(av)))
                                     for av in inst.available), 3),
        "seconds": round(time.monotonic() - t0, 3),
    }


def cmd_discharge(args) -> dict:
    g = dio.parse_graph_file(args.input)
    if not isinstance(g, PlaneGraph):
        raise dio.FormatError(
            f"{args.input}: discharging needs a rotation system")
    if args.action == "audit":
        rep = dc.audit(g, force_rules=args.force_rules)
        out = rep.to_json()
        if rep.accounts is not None:
            out["accounts"] = {
                name: dc.fmt_quarters(q)
                for name, q in out["accounts"].items()
            }
        return out
    # explain: per-element transfer history (rules run even on precondition
    # failures so the history is always available)
    rep = dc.audit(g, force_rules=True)
    elem = dc.parse_element(args.element)
    history = [
        {"rule": r, "from": dc.element_name(a), "to": dc.element_name(b),
         "amount": dc.fmt_quarters(q)}
        for r, a, b, q in rep.transfers
        if a == elem or b == elem
    ]
    if elem not in rep.accounts:
        raise dio.FormatError(f"no ledger account {args.element!r}")
    return {
        "element": args.element,
        "final": dc.fmt_quarters(rep.accounts[elem]),
        "transfers": history,
    }


def cmd_corpus(args) -> dict:
    stats = dio.CorpusStats()
    rows = []
    for g in dio.ingest_corpus(args.input, tuple(args.filter or ()), stats):
        graph = g.graph if isinstance(g, PlaneGraph) else g
        row: dict = {"n": graph.n, "m": graph.m}
        found = find_transversal(CoverInstance.straight(graph, args.k))
        row["solve"] = "FOUND" if found is not None else "NONE"
        if isinstance(g, PlaneGraph):
            rep = dc.audit(g, force_rules=True)
            row["audit"] = rep.verdict
            row["outer"] = dc.fmt_quarters(rep.accounts["OUTER"])
        rows.append(row)
        if args.limit and len(rows) >= args.limit:
            break
    return {
        "read": stats.read,
        "skipped": stats.skipped,
        "rejected": stats.rejected,
        "passed": len(rows),
        "graphs": rows,
    }


VERBS = {
    "solve": cmd_solve,
    "detect": cmd_detect,
    "reduce-check": cmd_reduce_check,
    "witness-verify": cmd_witness_verify,
    "discharge": cmd_discharge,
    "corpus": cmd_corpus,
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpcolor",
        description="Correspondence-coloring engine and proof-artifact "
                    "verifier for plane graphs.",
    )
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt")
    # accepted both before and after the verb
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS, dest="fmt")
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("solve", parents=[common],
                        help="find an independent transversal")
    sp.add_argument("input")
    sp.add_argument("--matching", help="matching-assignment file")
    sp.add_argument("--k", type=int,
                    help="colors per vertex of a bare graph (default 4)")
    sp.add_argument("--precolor", help="comma list v=c of fixed colors")

    dp = sub.add_parser("detect", parents=[common], help="substructure and cluster report")
    dp.add_argument("input")
    dp.add_argument("--assets", help="directory of pattern assets to match")

    rp = sub.add_parser("reduce-check", parents=[common], help="configuration reducibility")
    grp = rp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--lemma", help="built-in configuration label")
    grp.add_argument("--config", help="configuration file")
    rp.add_argument("--budget", type=int,
                    help="stop after this many instances (INCONCLUSIVE)")
    # kept so that older scripts still parse; every check runs in one process
    rp.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    rp.add_argument("--save-witness", help="write counterexample cover here")

    wp = sub.add_parser("witness-verify", parents=[common],
                        help="exhaustively confirm a no-transversal witness")
    wp.add_argument("input")

    gp = sub.add_parser("discharge", parents=[common], help="charge ledger audit")
    gp.add_argument("action", choices=("audit", "explain"))
    gp.add_argument("input")
    gp.add_argument("--force-rules", action="store_true",
                    help="run the rules even when a precondition fails")
    gp.add_argument("--element", help="account name for explain (v3, f1, "
                                      "H0, OUTER)")

    cp = sub.add_parser("corpus", parents=[common], help="batch solve + audit over a corpus")
    cp.add_argument("input")
    cp.add_argument("--filter", action="append", choices=tuple(dio.FILTERS))
    cp.add_argument("--k", type=int, default=4)
    cp.add_argument("--limit", type=int)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    k = getattr(args, "k", None)
    if k is not None and not dio.K_MIN <= k <= dio.K_MAX:
        parser.error(f"--k must be in [{dio.K_MIN}, {dio.K_MAX}], got {k}")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        parser.error("--workers must be >= 1")
    if workers > 1:
        print(f"note: --workers {workers} has no effect; reduce-check runs "
              "in one process", file=sys.stderr)
    for flag, low in (("budget", 0), ("limit", 1)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < low:
            parser.error(f"--{flag} must be >= {low}")
    if getattr(args, "action", None) == "explain" and not args.element:
        parser.error("discharge explain requires --element")
    if getattr(args, "action", None) == "audit" and args.element:
        parser.error("discharge audit takes no --element; "
                     "use discharge explain")
    try:
        _emit(VERBS[args.verb](args), args.fmt)
    except (dio.FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
