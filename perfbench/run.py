"""qmgraph benchmark: seeded closed-loop workloads against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload eval-words --seed 1 \
        --seconds 30 --trace 0

One caller in one process and one thread sends the next query when the
previous one has returned (a closed loop).  The run stops at the first
block boundary after --seconds have passed and at least MIN_SAMPLES
queries are done, so that at least ten latency samples lie above p90.
Every answer is checked; a query fails if it raises or a check rejects it.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same blocks
twice, first untraced and then with the per-layer wrappers of tracing.py,
and prints the per-layer metrics and the tracing overhead; the spans go
to .bench_out/.  The last line of output is one JSON object.

--record-golden re-runs every block of a workload at the default seed
and stores the answers in golden.json; later runs at that seed must
reproduce them exactly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 5
MIN_SAMPLES = 100
E2E = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
       ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_declared():
    """BENCHMARK.json must declare exactly the metrics this script prints."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in E2E]:
        die("BENCHMARK.json end_to_end differs from run.py")
    if [m["name"] for m in spec["per_layer"]] != [
            n for n, _, _ in tracing.LAYER_METRICS]:
        die("BENCHMARK.json per_layer differs from tracing.py")


def import_qmgraph():
    """A fresh import of the library from this checkout's src/."""
    if not (SRC / "qmgraph" / "__init__.py").is_file():
        die(f"no qmgraph sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "qmgraph" or m.startswith("qmgraph.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qm = importlib.import_module("qmgraph")
    if Path(qm.__file__).resolve().parent != (SRC / "qmgraph").resolve():
        die(f"imported qmgraph from {qm.__file__}, not from {SRC}")
    return qm


def set_up(workload: str, seed: int):
    """Import, checker self-test and input generation (with the corpus
    decisions that pick witnesses)."""
    qm = import_qmgraph()
    problems = checks.selftest(qm)
    if problems:
        die("checker self-test failed: " + "; ".join(problems))
    return qm, workloads.prepare(qm, workload, seed)


def load_golden(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def run_blocks(qm, blocks, golden, seconds=0.0, nblocks=None,
               min_samples=0, tracer=None):
    """Run whole blocks until the time and sample targets are both met (or
    exactly `nblocks` blocks).

    Returns ([(query, latency s, failure or None, answer)], blocks run).
    """
    recs = []
    start = time.perf_counter()
    b = 0
    while True:
        if nblocks is not None:
            if b >= nblocks:
                break
        elif (b and time.perf_counter() - start >= seconds
              and len(recs) >= min_samples):
            break
        bi = b % len(blocks)
        answers = []
        for i, q in enumerate(blocks[bi]):
            if tracer is not None:
                tracer.begin(len(recs), "query." + q.kind)
            t0 = time.perf_counter()
            try:
                ans, why = workloads.run_query(qm, q), None
            except Exception as exc:  # a failed query, counted and reported
                ans, why = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            if why is None:
                why = workloads.check(qm, q, ans, answers)
            if why is None and golden is not None:
                why = checks.golden(q.kind, ans, golden[bi][i])
            answers.append(ans if why is None else None)
            recs.append((q, dt, why, ans))
        b += 1
    return recs, b


def latency_stats(recs, per_block: int):
    """ops_per_s is the median over blocks of queries per second of query
    time: every block has the same mix, and the median discards a block
    slowed by a burst of load from outside the process."""
    lat = [r[1] for r in recs]
    rates = [per_block / sum(lat[i:i + per_block])
             for i in range(0, len(lat), per_block)]
    lat.sort()
    rank = math.ceil(0.9 * len(lat))  # nearest-rank p90
    return {"ops_per_s": statistics.median(rates), "block_rates": rates,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": lat[rank - 1] * 1e3,
            "above_p90": len(lat) - rank}


def report_failures(recs):
    bad = [(q.tag, why) for q, _, why, _ in recs if why is not None]
    for tag, why in bad[:10]:
        print(f"FAILED {tag}: {why}")
    return len(bad)


def per_tag(recs):
    tags: dict[str, list] = {}
    for q, dt, _, _ in recs:
        tags.setdefault(q.tag, []).append(dt)
    for tag in sorted(tags):
        print(f"  {tag:32s} n={len(tags[tag]):4d} "
              f"median={statistics.median(tags[tag]) * 1e3:9.2f} ms")


def sanity(qm, workload, recs, tracer, busy):
    """The seed profile the ROADMAP describes, as seen by the trace."""
    share = tracer.layer_self_share(busy)
    print("self time by layer (share of traced query time): " + ", ".join(
        f"{k}={v:.1%}" for k, v in share.items()))
    counts = [tracer.counts.get(i, {}) for i in range(len(recs))]
    if workload == "eval-words":
        wc = share["words"] + share["codes"]
        print(f"sanity: words+codes self time {wc:.1%} of query time "
              f"({'ok' if wc > 0.5 else 'NOT MET'}: expect most)")
    elif workload == "decide-families":
        i = max(range(len(recs)),
                key=lambda j: counts[j].get("graphs.leq_tau.calls", 0))
        top = counts[i].get("graphs.leq_tau.calls", 0)
        print(f"sanity: most graphs.leq_tau calls in one query: {top} on "
              f"{recs[i][0].tag} ({'ok' if top >= 100_000 else 'NOT MET'}: "
              "expect hundreds of thousands on the largest mixed path)")
    elif workload == "avg-symmetric":
        order: dict[str, int] = {}
        good = total = 0
        for (q, *_), c in zip(recs, counts):
            if not q.avg or q.aut is not None:
                continue
            if q.graph not in order:
                g = qm.expand(qm.parse_graph(q.graph))
                order[q.graph] = len(qm.enum_labelled_graph_autos(g))
            total += 1
            good += (c.get("autos.apply.calls") == order[q.graph]
                     == c.get("evaluators.terms.calls"))
        print(f"sanity: autos.apply.calls == evaluators.terms == |Aut| on "
              f"{good}/{total} averaged queries without random_aut0 "
              f"({'ok' if good == total else 'NOT MET'})")


def record_golden(workload: str):
    seed = workloads.DEFAULT_SEED
    qm, blocks = set_up(workload, seed)
    recs, _ = run_blocks(qm, blocks, None, nblocks=len(blocks))
    if report_failures(recs):
        die("not recording answers that fail their checks")
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    doc["seed"] = seed
    texts = iter(checks.answer_text(q.kind, ans) for q, _, _, ans in recs)
    doc[workload] = [[next(texts) for _ in block] for block in blocks]
    GOLDEN.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(recs)} answers of {workload} at seed {seed}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    check_declared()
    if args.record_golden:
        record_golden(args.workload)
        return

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        qm, blocks = set_up(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    golden = load_golden(args.workload, args.seed)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"golden={'yes' if golden else 'no'} blocks={len(blocks)} "
          f"queries/block={len(blocks[0])} set-ups "
          + " ".join(f"{t:.3f}s" for t in setups))

    if not args.trace:
        recs, nb = run_blocks(qm, blocks, golden, args.seconds,
                              min_samples=MIN_SAMPLES)
        failed = report_failures(recs)
        st = latency_stats(recs, len(blocks[0]))
        per_tag(recs)
        values = dict(st, setup_s=setup_s, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024)
        print(f"blocks={nb} samples={len(recs)} above_p90={st['above_p90']} "
              f"failed={failed} fail_frac={failed / len(recs):.4f} block "
              "ops/s: " + " ".join(f"{r:.3f}" for r in st["block_rates"]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E}
        attempted = len(recs)
    else:
        plain, nb = run_blocks(qm, blocks, golden, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced, _ = run_blocks(qm, blocks, golden, nblocks=nb, tracer=tracer)
        failed = report_failures(plain) + report_failures(traced)
        busy = sum(r[1] for r in traced)
        overhead = 1 - sum(r[1] for r in plain) / busy
        vals = tracer.layer_metrics(range(len(traced)), overhead)
        sanity(qm, args.workload, traced, tracer, busy)
        if tracer.missing:
            print("not in the program (reported as 0): "
                  + ", ".join(tracer.missing))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(path)
        print(f"blocks={nb} queries={len(traced)} traced, spans in {path.name}"
              f" ({tracer.dropped} beyond the cap not kept); failed={failed}")
        metrics = {name: {"value": vals[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
        attempted = len(plain) + len(traced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
