"""Outside-in layer tracing for the benchmark.

The program under test carries no spans of its own here.  Instead the
benchmark replaces each layer's public entry points with a wrapper that
records a span around the original call, *at the name the caller looks
up* — a module attribute for functions imported by name
(``repro.core.columnar.batch_sweep_join``), a class attribute for
methods (``ColumnResultStore.flush``).  Wrappers are installed in the
forked child that runs one traced round, so untraced rounds never see
them.

A span is ``(name, start, end, parent, counts)``: ``parent`` is the
index of the innermost span open when it started (``-1`` for a root).
Roots are the benchmark's own phase spans (``setup``,
``initial_join``, ``tick``); layer calls made outside a phase (the
answer check) are not recorded.  Wrappers stay installed until the
round's process exits.  Self time is a span's duration minus
the durations of its direct children — calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Dict[str, int]]

clock = time.perf_counter


class Tracer:
    """Collects spans in memory; written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        # Shard workers forked inside a phase inherit the wrappers and
        # an open stack; only the process that owns the tracer records.
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Open a span under the innermost open one; yields its counts."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        counts: Dict[str, int] = {}
        self.spans.append((name, clock(), 0.0, parent, counts))
        self._stack.append(idx)
        try:
            yield counts
        finally:
            self._stack.pop()
            _, start, _, _, _ = self.spans[idx]
            self.spans[idx] = (name, start, clock(), parent, counts)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, dict, object], Dict[str, int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` may return counts to attach to
        the span (candidates, survivors, rows written, events read).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            with tracer.span(name) as counts:
                result = original(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus direct children."""
        self_s = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per root phase: span self/inclusive time and counts by name.

        Returns ``{phase: {"<span>.self": s, "<span>.incl": s,
        "<span>.calls": n, "<span>.<count>": n}}`` summed over every
        root of that phase; ``incl`` sums only outermost spans of a
        name, so recursion never double-counts.
        """
        self_s = self.self_times()
        root_of: List[int] = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            phase = self.spans[root_of[i]][0]
            acc = out.setdefault(phase, {})
            acc[name + ".self"] = acc.get(name + ".self", 0.0) + self_s[i]
            if not self._has_ancestor_named(i, name):
                acc[name + ".incl"] = acc.get(name + ".incl", 0.0) + (end - start)
            acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
            for key, value in counts.items():
                acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def records(self, offset: float = 0.0) -> List[dict]:
        """Spans as JSON-ready records (times relative to ``offset``)."""
        return [
            {
                "name": name,
                "start": start - offset,
                "end": end - offset,
                "parent": parent,
                **({"counts": counts} if counts else {}),
            }
            for name, start, end, parent, counts in self.spans
        ]


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _sweep_counts(args, kwargs, result) -> Dict[str, int]:
    counter = kwargs.get("counter")
    candidates = counter[0] if counter else 0
    return {"candidates": int(candidates), "survivors": int(result[0].shape[0])}


def _rows_written(args, kwargs, result) -> Dict[str, int]:
    return {"rows": len(args[1])}


def _events_read(args, kwargs, result) -> Dict[str, int]:
    return {"events": len(result)}


def install(tracer: Tracer, engine_kind: str) -> None:
    """Wrap the public entry points of every layer ``engine_kind`` uses."""
    from repro.core import columnar, result
    from repro.core.columns import ColumnStore
    from repro.deltas.ledger import DeltaLedger

    if engine_kind == "columnar":
        tracer.wrap(columnar, "batch_sweep_join", "kernels.sweep_join", _sweep_counts)
        tracer.wrap(ColumnStore, "apply", "columns.write", _rows_written)
        tracer.wrap(ColumnStore, "add", "columns.write", _rows_written)
        tracer.wrap(ColumnStore, "gather", "columns.gather")
    store_cls = result.JoinResultStore if engine_kind == "object" else result.ColumnResultStore
    add_name = "add_all" if engine_kind == "object" else "add_batch"
    tracer.wrap(store_cls, add_name, "result.add")
    tracer.wrap(store_cls, "remove_objects", "result.remove")
    tracer.wrap(store_cls, "remove_object", "result.remove")
    tracer.wrap(store_cls, "flush", "result.flush")
    tracer.wrap(store_cls, "pairs_at", "result.query")
    tracer.wrap(store_cls, "prune_expired", "result.prune")
    tracer.wrap(DeltaLedger, "events_at", "deltas.read", _events_read)
    if engine_kind == "sharded":
        from repro.par.partition import StripePartition
        from repro.par.sharded import ShardedJoinEngine
        from repro.par.supervisor import ShardSupervisor

        tracer.wrap(StripePartition, "spans_to_shards", "par.route")
        tracer.wrap(ShardSupervisor, "run", "par.rpc")
        tracer.wrap(ShardedJoinEngine, "result_at", "par.merge")
    if engine_kind == "object":
        from repro.core import engine
        from repro.index.mtb import MTBTree
        from repro.index.tpr import TPRTree

        tracer.wrap(MTBTree, "insert", "index.build")
        tracer.wrap(MTBTree, "bulk_insert", "index.update")
        tracer.wrap(MTBTree, "bulk_delete", "index.update")
        tracer.wrap(TPRTree, "search_batch", "index.search")
        tracer.wrap(TPRTree, "search", "index.search")
        tracer.wrap(engine, "mtb_join_objects", "join.probe")
