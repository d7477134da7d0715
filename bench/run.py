"""dpcolor benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload catalog|corpus --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/`; inputs
and trace tables go to `.bench_work/`.  With `--trace 0` the
last line of stdout holds every `end_to_end` metric of BENCHMARK.json,
measured untraced.  With `--trace 1` it holds every `per_layer` metric: the
workload runs once untraced and once with every public dpcolor function
wrapped, and the difference of the two is the tracing overhead.
`attempted` and `failed` count the operations of a run's first pass plus
the benchmark's own checks; later passes must repeat them exactly (see
workloads.py for what one operation is).
Diagnostics (digests, corpus composition, errors) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUPS = 2  # set-up repeats per run; setup_s is their median


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def check_reference(ledger, wl, seed: int, key: str, digest: str) -> None:
    """Compare a digest with the one recorded for this workload.

    Seeded workloads are compared only at the default seed; for other seeds
    repeated set-ups and passes must still agree with each other.  Callers
    fold this check into one operation with those agreement checks, so that
    the number of operations does not depend on the seed.
    """
    ref = json.loads((BENCH / "reference.json").read_text())
    want = ref["digests"][wl.name].get(key)
    if want is None or (wl.seeded and seed != ref["default_seed"]):
        return
    ledger.expect(digest == want, f"{wl.name} {key} digest {digest[:12]} "
                                  f"!= reference {want[:12]}")


def measure(wl, args, import_s: float):
    """Untraced run: repeated set-ups, then passes for --seconds."""
    from workloads import Ledger

    ledger = Ledger()
    setup_s, setup_digests = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        setup_digests.append(wl.setup(ledger))
        setup_s.append(time.perf_counter() - t0)
    with ledger.operation():
        ledger.expect(len(set(setup_digests)) == 1,
                      "set-up is not deterministic")
        check_reference(ledger, wl, args.seed, "setup", setup_digests[0])
    # Passes run until --seconds is used up; another pass starts only if at
    # least half of it fits, so a long pass is not run twice by a hair.
    # Each pass keeps its own ledger.  The first pass's operations are the
    # run's, and every later pass must repeat them and their outcomes
    # exactly, so the counts do not depend on how many passes fit.
    passes, outcomes = [], []
    t_start = t_pass = time.perf_counter()
    while True:
        pass_ledger = Ledger()
        passes.append(wl.run(pass_ledger))
        if not outcomes:
            ledger.absorb(pass_ledger)
        outcomes.append(pass_ledger.outcome())
        now = time.perf_counter()
        if now - t_start + (now - t_pass) / 2 >= args.seconds:
            break
        t_pass = now
    with ledger.operation():
        ledger.expect(len(set(outcomes)) == 1,
                      "passes disagree on their operations or failures")
        ledger.expect(len({p["digest"] for p in passes}) == 1,
                      "passes disagree on their outputs")
        check_reference(ledger, wl, args.seed, "outputs", passes[0]["digest"])
    if hasattr(wl, "run_cli"):
        wl.run_cli(ledger)
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": 1 - ledger.failed / max(1, ledger.attempted),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
    }
    diag = {"setup_s": setup_s, "pass_s": [p["pass_s"] for p in passes],
            "setup_digest": setup_digests[0],
            "outputs_digest": passes[0]["digest"]}
    if "composition" in passes[0]:
        diag["composition"] = passes[0]["composition"]
    return [ledger], metrics, diag


def trace(wl, args):
    """One untraced and one traced set-up plus pass; per-layer metrics."""
    from layers import layer_metrics, make_hooks
    from tracer import Tracer
    from workloads import Ledger

    plain = Ledger()
    t0 = time.perf_counter()
    wl.setup(plain)
    base = wl.run(plain)
    untraced_s = time.perf_counter() - t0 - plain.untimed_s
    untraced = dict(base)
    if hasattr(wl, "run_cli"):
        cli = wl.run_cli(plain)
        untraced.update({"cli.startup_s": cli["startup_s"],
                         "cli.json_bytes": cli["json_bytes"],
                         "cli_s": cli["cli_s"]})

    counts: dict = {}
    tracer = Tracer(make_hooks(counts))
    traced = Ledger(tracer)
    tracer.install()
    try:
        t0 = time.perf_counter()
        setup_digest = wl.setup(traced)
        run = wl.run(traced)
        traced_s = time.perf_counter() - t0 - traced.untimed_s
    finally:
        tracer.remove()
    with traced.operation():
        traced.expect(run["digest"] == base["digest"],
                      "traced outputs differ from untraced outputs")
        check_reference(traced, wl, args.seed, "setup", setup_digest)
        check_reference(traced, wl, args.seed, "outputs", run["digest"])
    untraced["trace.overhead_s"] = traced_s - untraced_s
    (WORK / f"trace-{wl.name}-{args.seed}.json").write_text(
        json.dumps(tracer.table(), indent=1))
    metrics = layer_metrics(tracer, counts | traced.counts, untraced)
    diag = {"untraced_s": untraced_s, "traced_s": traced_s,
            "outputs_digest": run["digest"]}
    return [plain, traced], metrics, diag


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dpcolor" / "reduce.py").is_file():
        print(f"error: no dpcolor package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # importing the package (and numpy, which reduce loads lazily) is the
    # part of set-up a process pays once
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, ROOT, WORK)
    if args.trace:
        ledgers, values, diag = trace(wl, args)
        declared = spec["per_layer"]
    else:
        ledgers, values, diag = measure(wl, args, import_s)
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    wrong = [w for led in ledgers for w in led.wrong]
    errors = [e for led in ledgers for e in led.errors]
    diag.update(wrong=wrong, errors=errors)
    print(json.dumps(diag), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(led.attempted for led in ledgers),
        "failed": sum(led.failed for led in ledgers),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
