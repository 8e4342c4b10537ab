"""A rejected update batch leaves the sharded engine untouched.

Every check that can reject a batch — an id no dataset knows, an id
repeated within the batch, an id sent with the other dataset's columns
— runs before the router changes any state.  So the corrected retry of
the same batch lands the sharded engine exactly where the serial engine
lands, and the ticks after it keep matching, on every update path and
with either shard engine kind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, JoinConfig, UpdateColumns
from repro.par import ShardedJoinEngine
from repro.workloads import VectorUpdateStream, make_workload_arrays

T_M = 10.0
N = 150
SPOILED_TICKS = 4
TICKS = 8
UNKNOWN_OID = 7_777_777

#: What each spoiled batch must raise.
ERRORS = {"unknown": KeyError, "duplicate": ValueError, "other-dataset": KeyError}

#: (update path, spoil kind).  An object batch carries no dataset tag,
#: so only the column path can send an id with the wrong dataset.
CASES = [
    (path, kind)
    for path in ("apply_updates", "step", "apply_update_columns")
    for kind in ERRORS
    if kind != "other-dataset" or path == "apply_update_columns"
]


def with_row(upd: UpdateColumns, src: UpdateColumns, i: int, oid=None) -> UpdateColumns:
    """``upd`` plus row ``i`` of ``src`` appended last (optionally re-id'd)."""
    row_oid = src.oid[i : i + 1].copy()
    if oid is not None:
        row_oid[0] = oid
    return UpdateColumns(
        oid=np.concatenate([upd.oid, row_oid]),
        mlo=np.concatenate([upd.mlo, src.mlo[:, i : i + 1]], axis=1),
        mhi=np.concatenate([upd.mhi, src.mhi[:, i : i + 1]], axis=1),
        vlo=np.concatenate([upd.vlo, src.vlo[:, i : i + 1]], axis=1),
        vhi=np.concatenate([upd.vhi, src.vhi[:, i : i + 1]], axis=1),
        tref=np.concatenate([upd.tref, src.tref[i : i + 1]]),
    )


def spoil(kind: str, upd_a: UpdateColumns, upd_b: UpdateColumns):
    """The tick's batch with one bad row appended after the good ones."""
    if kind == "unknown":
        return with_row(upd_a, upd_a, 0, oid=UNKNOWN_OID), upd_b
    if kind == "duplicate":
        return with_row(upd_a, upd_a, 0), upd_b
    return with_row(upd_a, upd_b, 0), upd_b  # a B object in the A columns


def send(engine: ShardedJoinEngine, path: str, t: float, upd_a, upd_b):
    """Deliver one batch at ``t`` (the clock is already at ``t`` unless
    ``path`` is ``step``); returns the step answer or ``None``."""
    if path == "step":
        return engine.step(t, upd_a.objects() + upd_b.objects())
    if path == "apply_updates":
        engine.apply_updates(upd_a.objects() + upd_b.objects())
    else:
        engine.apply_update_columns(upd_a, upd_b)
    return None


@pytest.mark.parametrize("shard_engine", ["object", "columnar"])
@pytest.mark.parametrize("path, kind", CASES)
def test_rejected_batch_then_retry_matches_serial(path, kind, shard_engine):
    arrays = make_workload_arrays(
        N, "uniform", max_speed=3.0, object_size_pct=1.0, t_m=T_M, seed=31
    )
    scenario = arrays.to_scenario()
    serial = ColumnarJoinEngine(
        arrays.columns_a(), arrays.columns_b(), algorithm="tc",
        config=JoinConfig(t_m=T_M),
    )
    serial.run_initial_join()
    sharded = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc",
        config=JoinConfig(t_m=T_M, shard_engine=shard_engine), shards=4,
    )
    sharded.run_initial_join()
    stream = VectorUpdateStream(arrays, seed=32)
    pair_ticks = 0
    for step in range(1, TICKS + 1):
        t = float(step)
        upd_a, upd_b = stream.updates_at(t)
        serial.tick(t)
        serial.apply_update_columns(upd_a, upd_b)
        want = serial.result_at(t)
        if path != "step":
            sharded.tick(t)
        if step <= SPOILED_TICKS:
            with pytest.raises(ERRORS[kind]):
                send(sharded, path, t, *spoil(kind, upd_a, upd_b))
        answer = send(sharded, path, t, upd_a, upd_b)
        if answer is not None:
            assert answer == want, (path, kind, t)
        assert sharded.result_at(t) == want, (path, kind, t)
        assert sharded.merged_store().interval_rows() == serial.store.interval_rows()
        assert sharded.update_count == serial.update_count
        pair_ticks += bool(want)
    assert pair_ticks > 0, "vacuous run: the answer was always empty"
    sharded.close()
