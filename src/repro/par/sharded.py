"""The sharded continuous-join engine (spatial partitioning + worker fan-out).

:class:`ShardedJoinEngine` splits both datasets into ``K`` spatial
stripes (:class:`~repro.par.partition.StripePartition`); each shard
owns a full, independent serial engine over the subset of objects whose
*swept halo* touches the stripe.  ``JoinConfig.shard_engine`` picks the
engine class: the seed :class:`~repro.core.engine.ContinuousJoinEngine`
(its own trees/MTB forest, result store, buffer and cost tracker) or
the vectorized :class:`~repro.core.columnar.ColumnarJoinEngine`.

Routing
-------
Every update batch, whether it arrives as objects or as
:class:`~repro.core.columns.UpdateColumns`, goes through one router:
the batch is packed into columns, each row's halo is swept and routed
through the stripe cuts in one vectorized pass
(:meth:`~repro.par.partition.StripePartition.spans_to_shards`), and one
loop diffs old against new membership into per-shard ``update`` /
``admit`` / ``evict`` ops.  The whole batch is checked first — unknown
ids, ids of the other dataset, ids repeated in the batch — so a
rejected batch changes no state and a corrected retry succeeds.

Ghost-region correctness
------------------------
An object is a member of every stripe its kinetic box sweeps over
``[t_ref, t_ref + L]``, with the ghost horizon ``L = T_M + W_max``
where ``W_max`` is the longest probe window any strategy opens
(``T_M`` for TC-Join, ``bucket_length + T_M`` for MTB-Join).  If a
pair's stored interval contains a point ``τ``, both boxes cover the
same spatial point ``p`` at ``τ``, and ``τ ≤ t_ref + L`` holds for
both sides — so both sweeps contain ``p``'s coordinate and both
objects are members of ``p``'s stripe, which therefore computes the
pair with the exact same interval.  Any shard holding both endpoints
of a pair holds it with a bit-identical interval list, so the merged
store is a plain duplicate-free union, bit-exact against the
unsharded serial engine (per-object halo sizing is *tighter* than the
uniform ``max_speed × T_M`` bound — it uses each object's own
velocity over the same horizon).

Execution fans out over persistent pipe-connected worker processes
(``workers > 0``; each shard's engine lives in one slot's process for
its whole life) or runs serially in-process (``workers=0``) — command
semantics are identical (:mod:`repro.par.worker`).  Worker processes
are *supervised* (:class:`~repro.par.supervisor.ShardSupervisor`):
every round trip carries a timeout and liveness heartbeat, crashed or
hung workers are respawned and their shards rebuilt deterministically
from checkpoint + op-log replay, and a slot that keeps failing folds
into in-process execution instead of failing the join.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.columns import UpdateColumns, columns_from_objects
from ..core.config import JoinConfig
from ..metrics import CostSnapshot
from ..objects import MovingObject
from . import worker
from .partition import StripePartition
from ..deltas import ShardDeltaMerger
from .protocol import (
    OP_BUILD,
    OP_COST,
    OP_DELTAS,
    OP_INITIAL_JOIN,
    OP_OBJECTS,
    OP_OBS,
    OP_OPS,
    OP_PAIRS_AT,
    OP_PRUNE,
    OP_STORE_DUMP,
    OP_TICK,
    SHARD_OP_ADMIT,
    SHARD_OP_EVICT,
    SHARD_OP_UPDATE,
)
from .supervisor import ShardSupervisor, SupervisorStats

__all__ = ["ShardedJoinEngine", "SHARDABLE_ALGORITHMS"]

PairKey = Tuple[int, int]

#: Only window-bounded interval strategies can shard: the halo must
#: cover every probe window, so the unbounded naive window is out, and
#: ETP keeps no mergeable interval store.
SHARDABLE_ALGORITHMS = ("tc", "mtb")


class _SerialBackend:
    """In-process execution: the ``workers=0`` fallback."""

    def __init__(self) -> None:
        self.engines: Dict[int, object] = {}

    def run(self, cmds_by_shard: "OrderedDict[int, List[Tuple]]") -> Dict[int, List]:
        return {
            sid: worker.execute(self.engines, cmds)
            for sid, cmds in cmds_by_shard.items()
        }

    def close(self) -> None:
        self.engines.clear()


class ShardedJoinEngine:
    """K-way sharded, optionally multi-process, continuous join."""

    def __init__(
        self,
        objects_a: Iterable[MovingObject],
        objects_b: Iterable[MovingObject],
        algorithm: str = "mtb",
        config: Optional[JoinConfig] = None,
        shards: int = 4,
        workers: int = 0,
        axis: object = "auto",
        start_time: float = 0.0,
    ):
        if algorithm not in SHARDABLE_ALGORITHMS:
            raise ValueError(
                f"algorithm {algorithm!r} cannot shard; pick from "
                f"{SHARDABLE_ALGORITHMS}"
            )
        self.config = config if config is not None else JoinConfig()
        self.algorithm = algorithm
        self.now = float(start_time)
        self.start_time = float(start_time)
        self.workers = int(workers)
        self.objects_a: Dict[int, MovingObject] = {o.oid: o for o in objects_a}
        self.objects_b: Dict[int, MovingObject] = {o.oid: o for o in objects_b}
        overlap = self.objects_a.keys() & self.objects_b.keys()
        if overlap:
            raise ValueError(
                f"object ids shared across datasets: {sorted(overlap)[:5]}"
            )
        everything = list(self.objects_a.values()) + list(self.objects_b.values())
        self.partition = StripePartition.fit(everything, shards, axis)
        first, last = self._halo_shards(columns_from_objects(everything))
        self._members: Dict[int, Tuple[int, ...]] = {
            obj.oid: tuple(range(lo, hi + 1))
            for obj, lo, hi in zip(everything, first.tolist(), last.tolist())
        }
        self.update_count = 0
        self.initial_join_cost: Optional[CostSnapshot] = None
        #: Parent-side merge of the per-shard delta ledgers (``None``
        #: unless ``config.deltas``).  Shard ledgers are pulled after
        #: every mutation round and merged in tick order; holder-set
        #: refcounting cancels replica churn, replacement ingestion
        #: absorbs supervisor checkpoint/replay re-deliveries.
        self._merger: Optional[ShardDeltaMerger] = (
            ShardDeltaMerger(self.start_time) if self.config.deltas else None
        )

        shard_ids = list(range(self.partition.n_shards))
        if self.workers > 0:
            #: Supervised multi-process backend (``None`` when serial).
            self.supervisor: Optional[ShardSupervisor] = ShardSupervisor(
                self.workers,
                shard_ids,
                timeout=self.config.shard_timeout,
                heartbeat=self.config.shard_heartbeat,
                checkpoint_interval=self.config.checkpoint_interval,
                max_retries=self.config.max_retries,
                fault_spec=self.config.faults,
            )
            self._backend = self.supervisor
        else:
            self.supervisor = None
            self._backend = _SerialBackend()
        self._closed = False
        builds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        for sid in shard_ids:
            subset_a = [
                o for o in self.objects_a.values() if sid in self._members[o.oid]
            ]
            subset_b = [
                o for o in self.objects_b.values() if sid in self._members[o.oid]
            ]
            spec = worker.build_spec(
                subset_a, subset_b, algorithm, self.config, self.start_time
            )
            builds[sid] = [(OP_BUILD, sid, spec)]
        built = self._backend.run(builds)
        self.build_cost = _sum_costs(res[0] for res in built.values())

    # ------------------------------------------------------------------
    # Geometry of the sharding
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.partition.n_shards

    @property
    def ghost_horizon(self) -> float:
        """``T_M + W_max``: how far ahead membership sweeps must look.

        ``W_max`` bounds every probe window end the strategy can open
        relative to the probing object's ``t_ref``: ``T_M`` for TC-Join
        (Theorem 1), ``bucket_length + T_M`` for MTB-Join (the other
        side's bucket can end up to one bucket after the probe time).
        """
        t_m = self.config.t_m
        if self.algorithm == "mtb":
            return 2.0 * t_m + self.config.bucket_length
        return 2.0 * t_m

    def _halo_shards(self, cols: UpdateColumns) -> Tuple[np.ndarray, np.ndarray]:
        """Every shard each row's halo sweeps: ``first[k] .. last[k]``.

        The swept extent of each row over ``[tref, tref + ghost_horizon]``
        along the partition axis, routed through the stripe cuts.  The
        ``dt`` terms reproduce :func:`~repro.geometry.plane_sweep.
        sweep_bounds` (including its rounding), the membership rule the
        SC402 sanitizer recomputes independently.
        """
        axis = self.partition.axis
        tref = cols.tref
        dt1 = (tref + self.ghost_horizon) - tref
        mlo, mhi = cols.mlo[axis], cols.mhi[axis]
        vlo, vhi = cols.vlo[axis], cols.vhi[axis]
        lb = np.minimum(mlo + vlo * 0.0, mlo + vlo * dt1)
        ub = np.maximum(mhi + vhi * 0.0, mhi + vhi * dt1)
        return self.partition.spans_to_shards(lb, ub)

    # ------------------------------------------------------------------
    # Engine API (mirrors ContinuousJoinEngine)
    # ------------------------------------------------------------------
    def run_initial_join(self) -> CostSnapshot:
        cmds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        for sid in range(self.n_shards):
            cmds[sid] = [(OP_INITIAL_JOIN, sid)]
            if self._merger is not None:
                cmds[sid].append((OP_DELTAS, sid, self.now))
        results = self._backend.run(cmds)
        self.initial_join_cost = _sum_costs(res[0] for res in results.values())
        self._ingest_deltas(results)
        if self.config.sanitize:
            self.validate()
        return self.initial_join_cost

    def tick(self, t: float) -> None:
        if t < self.now:
            raise ValueError(f"time went backwards: {t} < {self.now}")
        self.now = t
        if self._merger is not None:
            self._merger.advance(t)
        self._fan_all(OP_TICK, t)

    def apply_update(self, obj: MovingObject) -> None:
        self.apply_updates([obj])

    def apply_updates(self, batch: Iterable[MovingObject]) -> None:
        """Fan one same-timestamp batch out to the member shards.

        Per object, shards in both the old and new membership get an
        ``update``; shards the halo grew into get an ``admit`` (index
        insert + probe — a new arrival has no stale pairs there);
        shards it left get an ``evict`` (index delete + pair removal —
        surviving pairs still live in every shard holding both
        endpoints, with identical intervals).  A batch with an unknown
        or repeated id raises before any state changes.
        """
        self._commit_ops(self._route_objects(batch))

    def _commit_ops(self, ops: "OrderedDict[int, List[Tuple]]") -> None:
        """Ship routed per-shard op batches; pull deltas in the same trip."""
        cmds = OrderedDict(
            (sid, [(OP_OPS, sid, shard_ops)])
            for sid, shard_ops in ops.items()
            if shard_ops
        )
        if self._merger is not None:
            for sid, shard_cmds in cmds.items():
                shard_cmds.append((OP_DELTAS, sid, self.now))
        if cmds:
            results = self._backend.run(cmds)
            self._ingest_deltas(results)
        if self.config.sanitize:
            self.validate()

    def step(self, t: float, batch: Iterable[MovingObject]) -> Set[PairKey]:
        """One fused tick: advance clocks, group-commit, answer.

        Semantically identical to ``tick(t)`` followed by
        ``apply_updates(batch)`` followed by ``result_at(t)``, but each
        shard receives its whole tick as one command list, so the
        worker backend pays a single send/receive round trip per shard
        per tick instead of three.  A rejected batch leaves the clock
        and every other state where it was.
        """
        if t < self.now:
            raise ValueError(f"time went backwards: {t} < {self.now}")
        ops = self._route_objects(batch)
        self.now = t
        if self._merger is not None:
            self._merger.advance(t)
        cmds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        for sid in range(self.n_shards):
            shard_cmds: List[Tuple] = [(OP_TICK, sid, t)]
            if ops[sid]:
                shard_cmds.append((OP_OPS, sid, ops[sid]))
            shard_cmds.append((OP_PAIRS_AT, sid, t))
            if self._merger is not None:
                shard_cmds.append((OP_DELTAS, sid, t))
            cmds[sid] = shard_cmds
        results = self._backend.run(cmds)
        self._ingest_deltas(results)
        if self.config.sanitize:
            self.validate()
        # The pairs answer sits last, unless the delta pull rode behind it.
        answer_idx = -1 if self._merger is None else -2
        answer: Set[PairKey] = set()
        for res in results.values():
            answer |= res[answer_idx]
        return answer

    def apply_update_columns(self, upd_a, upd_b) -> None:
        """Column-batch group commit: the array-native update path.

        ``upd_a`` / ``upd_b`` are :class:`~repro.core.columns.
        UpdateColumns` batches of already-registered objects of dataset
        A and B (``vlo == vhi`` — object batches, not aggregated node
        bounds).  Routing is the same as :meth:`apply_updates` on the
        same objects.
        """
        self._commit_ops(self._route(upd_a, upd_b))

    def _route_objects(
        self, batch: Iterable[MovingObject]
    ) -> "OrderedDict[int, List[Tuple]]":
        """Split an object batch by dataset, pack it and :meth:`_route` it."""
        objs_a: List[MovingObject] = []
        objs_b: List[MovingObject] = []
        for obj in batch:
            if obj.oid in self.objects_a:
                objs_a.append(obj)
            elif obj.oid in self.objects_b:
                objs_b.append(obj)
            else:
                raise KeyError(f"unknown object id {obj.oid}")
        return self._route(
            columns_from_objects(objs_a), columns_from_objects(objs_b), objs_a, objs_b
        )

    def _route(
        self,
        upd_a: UpdateColumns,
        upd_b: UpdateColumns,
        objs_a: Optional[List[MovingObject]] = None,
        objs_b: Optional[List[MovingObject]] = None,
    ) -> "OrderedDict[int, List[Tuple]]":
        """Resolve one same-timestamp batch into per-shard op lists,
        updating the object registries and halo memberships.

        Everything that can reject the batch runs before anything
        changes: every id must belong to its side's dataset and appear
        once, and every row must make a valid object and halo span.
        ``objs_a`` / ``objs_b`` are the rows as objects when the caller
        already holds them; otherwise they are built from the columns.
        """
        checked = []
        for upd, objs, registry, dataset in (
            (upd_a, objs_a, self.objects_a, "a"),
            (upd_b, objs_b, self.objects_b, "b"),
        ):
            oids = upd.oid.tolist()
            for oid in oids:
                if oid not in registry:
                    raise KeyError(f"unknown object id {oid} in dataset {dataset!r}")
            if len(set(oids)) != len(oids):
                raise ValueError("duplicate object ids in one update batch")
            if not oids:
                continue
            first, last = self._halo_shards(upd)
            checked.append((
                upd.objects() if objs is None else objs,
                first.tolist(),
                last.tolist(),
                registry,
                dataset,
            ))
        ops: "OrderedDict[int, List[Tuple]]" = OrderedDict(
            (sid, []) for sid in range(self.n_shards)
        )
        for objs, first, last, registry, dataset in checked:
            for obj, lo, hi in zip(objs, first, last):
                oid = obj.oid
                registry[oid] = obj
                old = self._members[oid]
                new = tuple(range(lo, hi + 1))
                self._members[oid] = new
                for sid in old:
                    if sid not in new:
                        ops[sid].append((SHARD_OP_EVICT, oid))
                for sid in new:
                    if sid in old:
                        ops[sid].append((SHARD_OP_UPDATE, obj))
                    else:
                        ops[sid].append((SHARD_OP_ADMIT, obj, dataset))
            self.update_count += len(objs)
        return ops

    def result_at(self, t: Optional[float] = None) -> Set[PairKey]:
        """Union of the shard answers (each shard reports exact pairs)."""
        if t is None:
            t = self.now
        if not self.now <= t:
            raise ValueError(
                "result_at only answers the present of the engine clock"
            )
        answer: Set[PairKey] = set()
        for pairs in self._fan_all(OP_PAIRS_AT, t).values():
            answer |= pairs
        return answer

    def prune_expired(self) -> int:
        """Prune every shard store; returns distinct pairs fully dropped."""
        cmds: "OrderedDict[int, List[Tuple]]" = OrderedDict()
        for sid in range(self.n_shards):
            cmds[sid] = [(OP_PRUNE, sid)]
            if self._merger is not None:
                cmds[sid].append((OP_DELTAS, sid, self.now))
        results = self._backend.run(cmds)
        self._ingest_deltas(results)
        dropped: Set[PairKey] = set()
        for res in results.values():
            dropped.update(res[0])
        return len(dropped)

    # ------------------------------------------------------------------
    # Delta streams
    # ------------------------------------------------------------------
    def _ingest_deltas(self, results: Dict[int, List]) -> None:
        """Fold one round's per-shard delta pulls into the merger.

        Callers append the ``OP_DELTAS`` pull *last* to each shard's
        command list, so the contribution is ``res[-1]``.  Ingestion is
        replacement per shard and tick: a re-issued batch after a crash
        (whose restored shard re-reports its whole open tick) lands on
        the same slot instead of double-counting.
        """
        if self._merger is None:
            return
        for sid, res in results.items():
            self._merger.ingest(sid, self.now, res[-1])

    def deltas(self, t: Optional[float] = None):
        """The merged netted delta events at tick ``t`` (default: now).

        Same stream as the unsharded engines over the same workload:
        per-shard ledgers are merged in tick order with replica churn
        (ghost admissions/evictions) cancelled by holder-set counting.
        """
        if self._merger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        if t is None:
            t = self.now
        return self._merger.events_at(t)

    def watch(self, *, oid: Optional[int] = None, region=None):
        """Subscribe to the merged delta stream (see the serial engine)."""
        from ..deltas import DeltaSubscription

        if self._merger is None:
            raise RuntimeError(
                "delta streams are off; build with JoinConfig(deltas=True)"
            )
        return DeltaSubscription(
            self._merger,
            oid=oid,
            region=region,
            index=self._pairs_index,
            region_oids=self._region_oids,
        )

    def _pairs_index(self, oid: int) -> Set[PairKey]:
        """Inverted-index lookup over the merged store (on demand)."""
        return self.merged_store().pairs_for_object(oid)

    def _region_oids(self, region) -> Set[int]:
        """Object ids whose bounding box intersects ``region`` right now."""
        found: Set[int] = set()
        for registry in (self.objects_a, self.objects_b):
            for obj in registry.values():
                if obj.mbr_at(self.now).intersects(region):
                    found.add(obj.oid)
        return found

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def store_dumps(self) -> Dict[int, List[Tuple]]:
        """Per-shard result-store contents (exact interval endpoints)."""
        return self._fan_all(OP_STORE_DUMP)

    def merged_store(self):
        """One :class:`~repro.core.result.JoinResultStore` equal to the
        serial engine's: the duplicate-free union of the shard stores."""
        from ..core.result import JoinResultStore
        from ..geometry import TimeInterval
        from ..join import JoinTriple

        store = JoinResultStore()
        for rows in self.store_dumps().values():
            for key, intervals in rows:
                if key in store:
                    continue  # every co-located copy is bit-identical
                for start, end in intervals:
                    store.add(JoinTriple(key[0], key[1], TimeInterval(start, end)))
        return store

    def cost_rollup(self) -> CostSnapshot:
        """Sum of the per-shard cumulative cost counters.

        After a crash recovery the affected shards' counters restart
        from the checkpoint rebuild — supervision trades exact cost
        continuity for state continuity (the result store *is* exact).
        """
        return _sum_costs(self._fan_all(OP_COST).values())

    def shard_costs(self) -> Dict[int, CostSnapshot]:
        return self._fan_all(OP_COST)

    def fault_stats(self) -> Optional[SupervisorStats]:
        """Supervision counters (``None`` for the serial backend)."""
        if self.supervisor is None:
            return None
        return self.supervisor.stats

    def obs_rollup(self) -> Optional[Dict[str, object]]:
        """Merged per-shard obs recordings (``None`` unless config.obs).

        The rollup keeps each shard's full span tree under ``shards``
        and sums their counter totals, so phase attribution survives
        the fan-out.
        """
        if not self.config.obs:
            return None
        recordings = self._fan_all(OP_OBS)
        totals: Dict[str, float] = {}
        shards = []
        for sid in sorted(recordings):
            recording = recordings[sid]
            if recording is None:
                continue
            shards.append({"shard": sid, "recording": recording})
            for name, value in recording.get("totals", {}).items():
                totals[name] = totals.get(name, 0) + value
        meta: Dict[str, object] = {
            "algorithm": self.algorithm,
            "shards": self.n_shards,
            "workers": self.workers,
        }
        if self.supervisor is not None:
            meta["supervisor"] = self.supervisor.stats.as_dict()
        return {
            "format": "repro.obs/rollup",
            "meta": meta,
            "totals": totals,
            "shards": shards,
        }

    # ------------------------------------------------------------------
    # Invariants / export
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A JSON-safe snapshot for the SC401–SC403 shard sanitizer."""
        contents = self._fan_all(OP_OBJECTS)
        dumps = self.store_dumps()
        objects = []
        for dataset, registry in (("a", self.objects_a), ("b", self.objects_b)):
            for oid in sorted(registry):
                obj = registry[oid]
                objects.append(
                    {
                        "oid": oid,
                        "dataset": dataset,
                        "params": list(obj.kbox.params()),
                        "members": list(self._members[oid]),
                    }
                )
        supervisor_state = (
            None
            if self.supervisor is None
            else self.supervisor.export_state(now=self.now)
        )
        return {
            "format": "repro.par/1",
            "algorithm": self.algorithm,
            "axis": self.partition.axis,
            "cuts": list(self.partition.cuts),
            "ghost_horizon": self.ghost_horizon,
            "now": self.now,
            "supervisor": supervisor_state,
            "objects": objects,
            "shards": [
                {
                    "shard": sid,
                    "objects_a": list(contents[sid][0]),
                    "objects_b": list(contents[sid][1]),
                    "store": [
                        [list(key), [list(iv) for iv in intervals]]
                        for key, intervals in sorted(dumps[sid])
                    ],
                }
                for sid in sorted(contents)
            ],
        }

    def validate(self) -> None:
        """Run the SC401–SC403 shard invariants (plus the SC501–SC503
        supervisor invariants when supervised, and the SC701–SC703
        delta reconciliation when delta streams are on); raise on any
        finding."""
        from ..check.sanitize import (
            check_delta_ledger,
            check_sharded_state,
            check_supervisor_state,
            raise_on_findings,
        )

        state = self.export_state()
        findings = check_sharded_state(state)
        if state.get("supervisor") is not None:
            findings = findings + check_supervisor_state(state["supervisor"])
        if self._merger is not None:
            findings = findings + check_delta_ledger(
                self.merged_store(), self._merger, label="sharded-deltas"
            )
        raise_on_findings(findings)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _fan_all(self, op: str, *args) -> Dict[int, object]:
        cmds = OrderedDict(
            (sid, [(op, sid) + args]) for sid in range(self.n_shards)
        )
        return {sid: res[0] for sid, res in self._backend.run(cmds).items()}

    def close(self) -> None:
        """Shut down worker processes (no-op when serial or already closed)."""
        if not self._closed:
            self._backend.close()
            self._closed = True

    def __enter__(self) -> "ShardedJoinEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedJoinEngine(algorithm={self.algorithm!r}, "
            f"K={self.n_shards}, workers={self.workers}, "
            f"|A|={len(self.objects_a)}, |B|={len(self.objects_b)}, "
            f"now={self.now:g})"
        )


def _sum_costs(snapshots: Iterable[CostSnapshot]) -> CostSnapshot:
    total = CostSnapshot(0, 0, 0, 0, 0.0)
    for snap in snapshots:
        total = CostSnapshot(
            total.page_reads + snap.page_reads,
            total.page_writes + snap.page_writes,
            total.pair_tests + snap.pair_tests,
            total.node_visits + snap.node_visits,
            total.cpu_seconds + snap.cpu_seconds,
        )
    return total
