"""One benchmark round: set-up, initial join, the tick window, checks.

Runs inside a forked child (see ``run.in_child``), so a round's peak RSS
is its own and tracing wrappers never outlive it.  Only the engine
calls are timed; the answer checks, delta fold and counter reads sit
between the timed regions.
"""

from __future__ import annotations

import multiprocessing
import resource
from contextlib import nullcontext
from typing import Dict, List

import cases
from oracle import BoxOracle, DeltaFold
from tracing import Tracer, clock, install

MIB = 1024.0 * 1024.0
#: The folded delta view is compared with the whole store every this
#: many ticks and at the end of the window; every tick checks the fold.
FULL_COMPARE_EVERY = 12


def run_round(case, inputs, traced: bool) -> Dict[str, object]:
    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer, case.engine)
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    workers = _WorkerReports() if case.engine == "sharded" else None

    oracle = BoxOracle(inputs.arrays.columns_a(), inputs.arrays.columns_b())
    fold = DeltaFold() if case.deltas else None
    errors: List[str] = []
    failed = 0

    setup_s, initial_s = [], []
    engine = None
    try:
        # The first builds only time set-up; the last ``joins`` of them
        # also time (and check) an initial join.  The tick window runs
        # on the last engine.
        for rep in range(case.setup_reps):
            if engine is not None:
                cases.close(engine)
                engine = None
            with phase("setup"):
                t0 = clock()
                engine = cases.build(case, inputs)
                setup_s.append(clock() - t0)
            if rep < case.setup_reps - case.joins:
                continue
            with phase("initial_join"):
                t0 = clock()
                answer, events = cases.initial_join(case, engine)
                initial_s.append(clock() - t0)
            problems = oracle.check(engine.now, answer)
            failed += bool(problems)
            errors += problems
        if workers is not None:
            workers.drain()  # reports of the engines closed above
        counts: Dict[str, object] = {"initial_pairs": len(answer)}
        if fold is not None:
            problems = fold.fold(events)
            problems += fold.compare_all(engine.store.interval_rows())
            failed += bool(problems)
            errors += problems

        before = _engine_counters(case, engine)
        tick_s, updates, ckpt_ticks, answer_sizes = [], [], [], []
        for batch in inputs.batches:
            t, upd_a, upd_b, _ = batch
            ckpt0 = _checkpoints(case, engine)
            try:
                with phase("tick"):
                    t0 = clock()
                    answer, events = cases.tick(case, engine, batch)
                    tick_s.append(clock() - t0)
            except Exception as exc:  # counted as a failed tick, run goes on
                failed += 1
                errors.append(f"t={t}: {type(exc).__name__}: {exc}")
                oracle.apply(upd_a, upd_b)
                continue
            updates.append(len(upd_a) + len(upd_b))
            ckpt_ticks.append(_checkpoints(case, engine) > ckpt0)
            answer_sizes.append(len(answer))
            oracle.apply(upd_a, upd_b)
            problems = oracle.check(t, answer)
            if fold is not None:
                problems += fold.fold(events)
                if len(tick_s) % FULL_COMPARE_EVERY == 0 or batch is inputs.batches[-1]:
                    problems += fold.compare_all(engine.store.interval_rows())
            failed += bool(problems)
            errors += problems
        after = _engine_counters(case, engine)
        counts.update(_window_counts(before, after))
        counts["answer_sizes"] = answer_sizes
        counts["checkpoint_ticks"] = sum(ckpt_ticks)
        if case.engine == "sharded":
            tests = [c.pair_tests for c in engine.shard_costs().values()]
            counts["shard_skew"] = max(tests) / (sum(tests) / len(tests))
            counts["checkpoints"] = engine.fault_stats().checkpoints
            store_bytes = None
        else:
            store = engine.store if case.engine == "columnar" else engine._strategy.store
            store_bytes = store.approx_bytes()
    finally:
        if engine is not None:
            cases.close(engine)

    rss_mb = _peak_rss_kb() / 1024.0
    if workers is not None:
        reports = workers.drain()
        rss_mb += sum(r["rss_kb"] for r in reports) / 1024.0
        store_bytes = sum(r["store_bytes"] for r in reports)

    result: Dict[str, object] = {
        "traced": traced,
        "setup_s": setup_s,
        "initial_join_s": initial_s,
        "tick_s": tick_s,
        "updates": updates,
        "checkpoint_ticks": ckpt_ticks,
        "attempted": case.joins + len(inputs.batches),
        "failed": failed,
        "errors": errors,
        "counts": counts,
        "peak_rss_mb": rss_mb,
        "store_mb": store_bytes / MIB,
    }
    if tracer is not None:
        layers = tracer.summarize()
        result["layers"] = layers
        result["layer_counts"] = {
            f"{phase_name}.{key}": value
            for phase_name, acc in layers.items()
            for key, value in acc.items()
            if not key.endswith((".self", ".incl"))
        }
        result["spans"] = tracer.records(offset=tracer.spans[0][1])
    return result


def _peak_rss_kb() -> int:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _checkpoints(case, engine) -> int:
    return engine.fault_stats().checkpoints if case.engine == "sharded" else 0


def _engine_counters(case, engine) -> Dict[str, int]:
    """Cumulative engine-side cost counters (summed over shards)."""
    if case.engine == "sharded":
        snaps = engine.shard_costs().values()
        return {"pair_tests": sum(s.pair_tests for s in snaps)}
    tracker = engine.tracker
    out = {
        "pair_tests": tracker.pair_tests,
        "io": tracker.page_reads + tracker.page_writes,
        "node_visits": tracker.node_visits,
    }
    if case.engine == "object":
        buffer = engine.storage.buffer
        out["buffer_hits"] = buffer.hits
        out["buffer_misses"] = buffer.misses
    return out


def _window_counts(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, object]:
    """Counter deltas over the tick window."""
    out: Dict[str, object] = {k: after[k] - before[k] for k in after}
    if "buffer_hits" in out:
        total = out["buffer_hits"] + out["buffer_misses"]
        out["buffer_hit_rate"] = out["buffer_hits"] / total if total else 0.0
    return out


class _WorkerReports:
    """Per-worker peak RSS and store bytes, reported as each worker exits.

    Wraps ``repro.par.worker.serve`` (the target the supervisor spawns)
    so that, after the serve loop returns on shutdown, the worker sends
    its own peak RSS and the summed ``approx_bytes()`` of the shard
    stores it holds — the workers' own stores, not a parent-side
    rebuild.
    """

    def __init__(self) -> None:
        from repro.par import worker

        self._queue = multiprocessing.get_context("fork").SimpleQueue()
        original = worker.serve
        queue = self._queue

        def serve(conn, fault_spec=None):
            try:
                return original(conn, fault_spec)
            finally:
                queue.put(
                    {
                        "rss_kb": _peak_rss_kb(),
                        "store_bytes": sum(
                            e.store.approx_bytes() for e in worker._ENGINES.values()
                        ),
                    }
                )

        worker.serve = serve

    def drain(self) -> List[dict]:
        reports = []
        while not self._queue.empty():
            reports.append(self._queue.get())
        return reports
