"""Benchmark of the continuous intersection join (one command, four workloads).

Usage, from the repository root::

    python3 perfbench/run.py --workload scale-tc --seed 1 --seconds 30 --trace 0

Each run generates its workload from ``--seed`` (untimed), then makes a
fixed number of *rounds* — ``--seconds`` divided by the nominal round
length, at least three.  A round runs in a forked child:
it constructs the engine (``setup_reps`` times), runs the initial join
and then the fixed tick window, checking every answer against a direct
NumPy evaluation.  Rounds repeat identical work, so every count a round
reports must repeat exactly; the run fails if one does not.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (plus
``trace.overhead``), writing every traced span to
``perfbench/out/spans-<workload>-<seed>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import statistics
import sys
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ROUNDS = 3
#: Nominal wall time of one round; ``--seconds`` buys that many rounds.
ROUND_S = 7.5
#: Percentile ladder for ``tick_tail_s``: the highest rung that leaves
#: at least ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
MAX_ERRORS_SHOWN = 5

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A fixed engine configuration: no env-armed sanitizer, obs or faults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    import cases
    import rounds

    # Metric names and units, as BENCHMARK.json declares them.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    case = cases.CASES.get(args.workload)
    if case is None:
        print(
            f"error: unknown workload {args.workload!r}; pick from {sorted(cases.CASES)}",
            file=sys.stderr,
        )
        return 2

    t0 = rounds.clock()
    inputs = cases.generate(case, args.seed)
    gen_s = rounds.clock() - t0
    # Every future batch is held up front; keep those objects out of the
    # collections that run inside timed ticks.
    gc.freeze()

    n_rounds = max(MIN_ROUNDS, int(round(args.seconds / ROUND_S)))
    if args.trace:
        n_rounds += n_rounds % 2  # as many traced rounds as untraced ones
    results = []
    for i in range(n_rounds):
        traced = bool(args.trace) and i % 2 == 1
        results.append(in_child(rounds.run_round, case, inputs, traced))

    untraced = [r for r in results if not r["traced"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    errors += count_mismatches(results)

    ticks = [s for r in untraced for s in r["tick_s"]]
    tail_p, tail_v = tail(ticks)
    e2e = {
        "setup_s": statistics.median(s for r in untraced for s in r["setup_s"]),
        "initial_join_s": statistics.median(s for r in untraced for s in r["initial_join_s"]),
        "tick_p50_s": statistics.median(ticks),
        "tick_tail_s": tail_v,
        "updates_per_s": sum(sum(r["updates"]) for r in untraced) / sum(ticks),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "answer_ok_frac": 1.0 - failed / attempted,
    }
    print(
        f"workload {case.name} seed {args.seed}: {case.engine} {case.algorithm}, "
        f"{case.n}/side {case.distribution}, {n_rounds} rounds x {case.ticks} ticks"
        f"{' (odd rounds traced)' if args.trace else ''}, inputs generated in {gen_s:.2f} s"
    )
    for name, value in e2e.items():
        note = ""
        if name == "tick_tail_s":
            beyond = sum(s > value for s in ticks)
            note = f"p{tail_p:g} of {len(ticks)} ticks ({beyond} beyond)"
        elif name == "answer_ok_frac":
            note = f"failed_frac {failed / attempted:g} ({failed} of {attempted} answers)"
        print(f"  {name:<16} {value:>14.6g} {end_to_end[name]:<8} {note}")
    print(f"  initial_pairs    {results[0]['counts']['initial_pairs']:>14d}")
    for err in errors[:MAX_ERRORS_SHOWN]:
        print(f"  ERROR {err}")

    if args.trace:
        layers = per_layer(case, results, gen_s)
        for name, unit in per_layer_units.items():
            print(f"  {name:<28} {layers[name]:>14.6g} {unit}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{case.name}-{args.seed}.json"
        spans_file.write_text(
            json.dumps(
                {
                    "workload": case.name,
                    "seed": args.seed,
                    "rounds": [
                        {"round": i, "counts": r["counts"], "spans": r["spans"]}
                        for i, r in enumerate(results)
                        if r["traced"]
                    ],
                }
            )
        )
        print(f"  spans written to {spans_file.relative_to(ROOT)}")
        units, values = per_layer_units, layers
    else:
        units, values = end_to_end, e2e
    metrics = {k: {"value": float(values[k]), "unit": unit} for k, unit in units.items()}

    correct = failed == 0 and not errors
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child: isolated peak RSS, no state leaks."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(fn, args, send))
    proc.start()
    send.close()
    try:
        status, payload = recv.recv()
    except EOFError:
        status, payload = "err", "round process died"
    finally:
        proc.join()
        recv.close()
    if status != "ok":
        raise RuntimeError(f"benchmark round failed: {payload}")
    return payload


def _child(fn, args, conn) -> None:
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:  # report to the parent, never hang it
        conn.send(("err", traceback.format_exc()))
        raise
    finally:
        conn.close()


def tail(samples: List[float]):
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def count_mismatches(results) -> List[str]:
    """Deterministic counts must repeat exactly in every round."""
    errors = []
    for key in ("counts", "layer_counts"):
        rounds = [(i, r[key]) for i, r in enumerate(results) if key in r]
        for i, counts in rounds[1:]:
            if counts != rounds[0][1]:
                diff = sorted(
                    name
                    for name in counts.keys() | rounds[0][1].keys()
                    if counts.get(name) != rounds[0][1].get(name)
                )
                errors.append(f"round {i}: {key} differ from round {rounds[0][0]}: {diff}")
    return errors


def per_layer(case, results, gen_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced rounds (medians across rounds)."""
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    k = case.ticks
    rows = []
    for r in traced:
        tick = r["layers"].get("tick", {})
        init = r["layers"].get("initial_join", {})
        setup = r["layers"].get("setup", {})
        counts = r["counts"]
        g = lambda key, src=tick: src.get(key, 0.0)  # noqa: E731
        candidates = g("kernels.sweep_join.candidates")
        columnar = case.engine == "columnar"
        rows.append(
            {
                "kernels.sweep_join.init_s": g("kernels.sweep_join.incl", init) / case.joins,
                "kernels.init_candidates": g("kernels.sweep_join.candidates", init) / case.joins,
                "kernels.sweep_join.tick_s": g("kernels.sweep_join.incl") / k,
                "kernels.sweep_join.calls": g("kernels.sweep_join.calls"),
                "kernels.candidates": candidates,
                "kernels.survivors": g("kernels.sweep_join.survivors"),
                "kernels.selectivity": (
                    g("kernels.sweep_join.survivors") / candidates if candidates else 0.0
                ),
                "result.add_s": g("result.add.incl") / k,
                "result.remove_s": g("result.remove.incl") / k,
                "result.flush_s": g("result.flush.self") / k,
                "result.query_s": g("result.query.self") / k,
                "result.prune_s": g("result.prune.self") / k,
                "result.store_mb": r["store_mb"],
                "columns.write_s": g("columns.write.incl") / k,
                "columns.gather_s": g("columns.gather.incl") / k,
                "columns.rows_written": g("columns.write.rows"),
                "columnar.self_s": g("tick.self") / k if columnar else 0.0,
                "columnar.sweeps_per_tick": (
                    g("kernels.sweep_join.calls") / k if columnar else 0.0
                ),
                "deltas.read_s": g("deltas.read.self") / k,
                "deltas.events": g("deltas.read.events"),
                "par.route_s": g("par.route.incl") / k,
                "par.rpc_s": g("par.rpc.incl") / k,
                "par.rpc_calls": g("par.rpc.calls"),
                "par.merge_s": g("par.merge.self") / k,
                "par.shard_skew": counts.get("shard_skew", 0.0),
                "par.checkpoints": counts.get("checkpoints", 0),
                "index.build_s": g("index.build.incl", setup) / case.setup_reps,
                "index.update_s": g("index.update.incl") / k,
                "index.search_s": g("index.search.incl") / k,
                "index.io": counts.get("io", 0),
                "index.node_visits": counts.get("node_visits", 0),
                "join.probe_s": g("join.probe.self") / k,
                "join.pair_tests": counts.get("pair_tests", 0),
                "storage.buffer_hit_rate": counts.get("buffer_hit_rate", 0.0),
            }
        )
    layers = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    ckpt_ticks = [
        s for r in untraced for s, c in zip(r["tick_s"], r["checkpoint_ticks"]) if c
    ]
    layers["par.checkpoint_tick_s"] = statistics.median(ckpt_ticks) if ckpt_ticks else 0.0
    layers["workloads.gen_s"] = gen_s
    p50_traced = statistics.median(s for r in traced for s in r["tick_s"])
    p50_plain = statistics.median(s for r in untraced for s in r["tick_s"])
    layers["trace.overhead"] = p50_traced / p50_plain
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
