"""Worker-side execution of shard commands.

A shard's engine is stateful, so the supervisor sends every command for
shard ``s`` to the *same* worker process; there :func:`serve` keeps the
engine in the module-global :data:`_ENGINES` registry, keyed by shard
id.  The serial (``workers=0``) backend runs the identical
:func:`execute` dispatch on an in-process registry, so both paths share
one command semantics.

Commands are plain tuples ``(op, shard_id, *args)``; results are plain
picklable values (tuples, dicts, :class:`~repro.metrics.CostSnapshot`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.columnar import ColumnarJoinEngine
from ..core.config import JoinConfig
from ..core.engine import ContinuousJoinEngine
from ..faults import FaultPlan
from ..objects import MovingObject
from .protocol import (
    COMMANDS,
    OP_BUILD,
    OP_CHECKPOINT,
    OP_COST,
    OP_DELTAS,
    OP_INITIAL_JOIN,
    OP_OBJECTS,
    OP_OBS,
    OP_OPS,
    OP_PAIRS_AT,
    OP_PRUNE,
    OP_RESTORE,
    OP_STORE_DUMP,
    OP_TICK,
    SHARD_OP_ADMIT,
    SHARD_OP_EVICT,
    SHARD_OP_UPDATE,
)

__all__ = [
    "build_spec",
    "execute",
    "apply_shard_ops",
    "serve",
    "make_checkpoint",
    "restore_engine",
    "checkpoint_spec",
    "CHECKPOINT_FORMAT",
]

#: Version tag of the picklable checkpoint blob.  ``/2`` switched the
#: blob from a positional tuple to explicit dict keys so producers and
#: consumers can be cross-checked statically (RC104); ``/3`` added the
#: ``delta_seed`` key — the open tick's netted delta events — so a
#: restored shard's delta ledger resumes exactly-once mid-tick; ``/4``
#: added the ``engine`` key (``"object"`` | ``"columnar"``) so restore
#: rebuilds the same engine class the shard was running
#: (``JoinConfig.shard_engine``).
CHECKPOINT_FORMAT = "repro.par.ckpt/4"

#: Either engine class a shard may run (``JoinConfig.shard_engine``).
ShardEngine = Union[ContinuousJoinEngine, ColumnarJoinEngine]

#: Per-process registry of shard engines (worker processes only; the
#: serial backend keeps its own).
_ENGINES: Dict[int, ShardEngine] = {}


def _engine_class(config: JoinConfig):
    """The engine class ``config.shard_engine`` selects."""
    return (
        ColumnarJoinEngine
        if config.shard_engine == "columnar"
        else ContinuousJoinEngine
    )


def _engine_kind(engine: ShardEngine) -> str:
    """The ``shard_engine`` tag of a live engine (checkpoint key)."""
    return "columnar" if isinstance(engine, ColumnarJoinEngine) else "object"


def _result_store(engine: ShardEngine):
    """The engine's result store, independent of engine layout.

    The columnar engine exposes it as ``engine.store``; the object
    engine keeps it behind the strategy.  Explicit ``None`` test — an
    empty store is falsy, so ``or``-chaining would misroute it.
    """
    store = getattr(engine, "store", None)
    return engine._strategy.store if store is None else store


def build_spec(
    objects_a: Sequence[MovingObject],
    objects_b: Sequence[MovingObject],
    algorithm: str,
    config: JoinConfig,
    start_time: float,
) -> Tuple:
    """The picklable recipe from which a shard engine is built."""
    return (list(objects_a), list(objects_b), algorithm, config, start_time)


def apply_shard_ops(engine: ShardEngine, ops: Sequence[Tuple]) -> None:
    """Apply one tick's membership-resolved op batch to a shard engine.

    ``ops`` mixes ``("update", obj)`` for objects staying resident,
    ``("admit", obj, dataset)`` for objects whose halo grew into the
    shard, and ``("evict", oid)`` for halos that left; the whole batch
    group-commits through
    :meth:`~repro.core.engine.ContinuousJoinEngine.apply_updates`.
    """
    updates: List[MovingObject] = []
    admissions: List[Tuple[MovingObject, str]] = []
    evictions: List[int] = []
    for op in ops:
        kind = op[0]
        if kind == SHARD_OP_UPDATE:
            updates.append(op[1])
        elif kind == SHARD_OP_ADMIT:
            admissions.append((op[1], op[2]))
        elif kind == SHARD_OP_EVICT:
            evictions.append(op[1])
        else:
            raise ValueError(f"unknown shard op {kind!r}")
    engine.apply_updates(updates, admit=admissions, evict=evictions)


def _dump_store(engine: ShardEngine) -> List[Tuple]:
    """The result store as ``(key, ((start, end), …))`` rows."""
    return list(_result_store(engine).interval_rows().items())


def _pull_deltas(engine: ShardEngine, t: float) -> Tuple:
    """The shard's cumulative netted delta events at tick ``t``.

    Non-mutating and therefore never op-logged: the parent may re-pull
    after any failure and the reply always carries the *whole* net for
    the tick (the merge layer ingests it with replacement semantics).
    Empty when the shard keeps no ledger (``config.deltas`` off).
    """
    ledger = getattr(engine, "ledger", None)
    if ledger is None:
        return ()
    with engine._span("engine.deltas", t=t):
        return tuple(ledger.events_at(t))


def _open_delta_events(engine: ShardEngine) -> Tuple:
    """Plain-tuple ``(sign, a, b, start, end)`` rows of the open tick.

    Checkpoint payload: a checkpoint can land mid-tick (between
    mutation rounds), and replay alone would only reconstruct the
    rounds *after* it — seeding the restored ledger with these rows
    makes its open-tick net equal the original net-from-tick-start.
    """
    ledger = getattr(engine, "ledger", None)
    if ledger is None:
        return ()
    return tuple(
        (ev.sign, ev.a_oid, ev.b_oid, ev.start, ev.end)
        for ev in ledger.events_at(engine.now)
    )


def make_checkpoint(engine: ShardEngine) -> Dict:
    """Serialize a shard engine into a picklable recovery blob.

    The blob is the *rebuild recipe*, not the structure: the engine's
    current objects as a build spec referenced at ``engine.now`` plus
    the exact result-store rows.  A fresh engine built from the spec
    has the same future behaviour (index shape may differ; search
    answers are shape-independent) and re-adding the dumped rows
    reproduces the store bit-for-bit — so checkpoint + op-log replay
    lands on the exact pre-crash state.  The ``engine`` key records
    which engine class was running, so a columnar shard restores as a
    columnar shard even under a config whose default differs.
    """
    spec = build_spec(
        list(engine.objects_a.values()),
        list(engine.objects_b.values()),
        engine.algorithm,
        engine.config,
        engine.now,
    )
    return {
        "format": CHECKPOINT_FORMAT,
        "spec": spec,
        "rows": _dump_store(engine),
        "update_count": engine.update_count,
        "delta_seed": _open_delta_events(engine),
        "engine": _engine_kind(engine),
    }


def _checked_blob(blob: Dict) -> Dict:
    fmt = blob.get("format") if isinstance(blob, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {fmt!r}")
    return blob


def checkpoint_spec(blob: Dict) -> Tuple:
    """The build spec embedded in a checkpoint blob."""
    return _checked_blob(blob)["spec"]


def restore_engine(blob: Dict) -> ShardEngine:
    """Rebuild a shard engine from a checkpoint blob.

    The ``engine`` tag picks the class; the store re-add is one
    :meth:`~repro.core.result.JoinResultStore.add_batch` over the
    dumped rows — already canonical (sorted, merged, disjoint), so both
    store layouts land on the exact pre-checkpoint planes/lists.
    """
    blob = _checked_blob(blob)
    rows = blob["rows"]
    update_count = blob["update_count"]
    seed = blob["delta_seed"]
    objects_a, objects_b, algorithm, config, start_time = blob["spec"]
    cls = ColumnarJoinEngine if blob["engine"] == "columnar" else ContinuousJoinEngine
    engine = cls(
        objects_a,
        objects_b,
        algorithm=algorithm,
        config=config,
        start_time=start_time,
    )
    store = _result_store(engine)
    # Detach any fresh ledger while the dump is re-added: re-adding
    # history must not re-emit it as delta events.
    if engine.ledger is not None:
        store.attach_ledger(None)
    flat_a: List[int] = []
    flat_b: List[int] = []
    flat_lo: List[float] = []
    flat_hi: List[float] = []
    for key, intervals in rows:
        for start, end in intervals:
            flat_a.append(key[0])
            flat_b.append(key[1])
            flat_lo.append(start)
            flat_hi.append(end)
    if flat_a:
        store.add_batch(flat_a, flat_b, flat_lo, flat_hi)
    if engine.ledger is not None:
        _reseed_ledger(engine, store, rows, seed)
    engine.update_count = update_count
    engine._sanitize()
    return engine


def _reseed_ledger(engine: ShardEngine, store, rows, seed) -> None:
    """Re-arm a restored engine's delta ledger, exactly-once.

    The checkpoint rows are the store *at checkpoint time* = the
    tick-start state plus the seeded open-tick events.  Inverting the
    seed against the rows recovers the tick-start state, which becomes
    the fresh ledger's baseline; re-recording the seed then makes
    ``events_at(open tick)`` equal the original net-from-tick-start, so
    replayed rounds extend the net instead of restarting it and the
    ``SC701`` reconciliation (baseline ⊕ events == store) holds from
    the first post-restore sanitize on.
    """
    from ..deltas import DeltaLedger, DeltaView

    view = DeltaView({key: intervals for key, intervals in rows})
    for sign, a, b, start, end in seed:
        view.apply_row(-sign, a, b, start, end)
    fresh = DeltaLedger(engine.now, baseline=view.rows())
    for sign, a, b, start, end in seed:
        fresh.record(sign, a, b, start, end)
    engine.ledger = fresh
    store.attach_ledger(fresh)


def _prune(engine: ShardEngine) -> List[Tuple[int, int]]:
    """Prune expired intervals; returns the pair keys fully dropped."""
    store = _result_store(engine)
    before = store.pair_keys()
    engine.prune_expired()
    after = set(store.pair_keys())
    return [key for key in before if key not in after]


def execute(
    engines: Dict[int, ShardEngine], cmds: Sequence[Tuple]
) -> List[Any]:
    """Run a command batch against a registry; one result per command.

    Every command is validated against its :data:`~repro.par.protocol.
    COMMANDS` spec before dispatch: an unknown op or a wrong payload
    arity is a deterministic :class:`ValueError`, never a silent
    misread of the tuple.
    """
    out: List[Any] = []
    for cmd in cmds:
        op, sid = cmd[0], cmd[1]
        spec = COMMANDS.get(op)
        if spec is None:
            raise ValueError(f"unknown shard command {op!r}")
        if len(cmd) != 2 + spec.n_args:
            raise ValueError(
                f"command {op!r} takes {spec.n_args} argument(s), "
                f"got {len(cmd) - 2}"
            )
        if op == OP_BUILD:
            objects_a, objects_b, algorithm, config, start_time = cmd[2]
            engines[sid] = _engine_class(config)(
                objects_a,
                objects_b,
                algorithm=algorithm,
                config=config,
                start_time=start_time,
            )
            out.append(engines[sid].build_cost)
            continue
        if op == OP_RESTORE:
            engines[sid] = restore_engine(cmd[2])
            out.append(None)
            continue
        engine = engines[sid]
        if op == OP_INITIAL_JOIN:
            out.append(engine.run_initial_join())
        elif op == OP_TICK:
            engine.tick(cmd[2])
            out.append(None)
        elif op == OP_OPS:
            apply_shard_ops(engine, cmd[2])
            out.append(None)
        elif op == OP_PAIRS_AT:
            out.append(engine.result_at(cmd[2]))
        elif op == OP_STORE_DUMP:
            out.append(_dump_store(engine))
        elif op == OP_OBJECTS:
            out.append(
                (
                    sorted(engine.objects_a),
                    sorted(engine.objects_b),
                )
            )
        elif op == OP_PRUNE:
            out.append(_prune(engine))
        elif op == OP_COST:
            out.append(engine.tracker.snapshot())
        elif op == OP_OBS:
            out.append(None if engine.obs is None else engine.obs.to_dict())
        elif op == OP_CHECKPOINT:
            out.append(make_checkpoint(engine))
        elif op == OP_DELTAS:
            out.append(_pull_deltas(engine, cmd[2]))
        else:
            raise ValueError(f"unknown shard command {op!r}")
    return out


def serve(conn, fault_spec: Optional[str] = None) -> None:
    """Pipe-worker main loop: answer command batches until told to stop.

    Each request is one picklable command list; the reply is
    ``("ok", results)`` or ``("error", traceback_text)`` — errors are
    reported rather than killing the worker, so the engine state held
    in :data:`_ENGINES` survives a failed command for post-mortem
    commands.  A result that cannot be pickled is downgraded to a
    structured ``("error", …)`` reply too, so the request/reply framing
    never desyncs.  A ``None`` request (or a closed pipe) shuts down.

    ``fault_spec`` arms deterministic fault injection
    (:mod:`repro.faults`): ``None`` reads ``REPRO_FAULTS`` from the
    environment, the empty string disarms entirely (the supervisor
    passes ``""`` on respawn so injected crashes cannot re-fire during
    recovery).
    """
    plan = FaultPlan.from_env() if fault_spec is None else FaultPlan.parse(fault_spec)
    while True:
        try:
            cmds = conn.recv()
        except EOFError:
            break
        if cmds is None:
            break
        try:
            if plan:
                for cmd in cmds:
                    plan.before_command(cmd)
            results = execute(_ENGINES, cmds)
            if plan:
                plan.poison_results(cmds, results)
            reply = ("ok", results)
        except Exception:  # noqa: BLE001 - reported, not swallowed
            import traceback

            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except Exception:  # unpicklable result: keep the framing intact
            import traceback

            try:
                conn.send(("error", traceback.format_exc()))
            except Exception:  # pragma: no cover - parent pipe gone
                break
    conn.close()
