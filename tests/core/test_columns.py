"""Unit tests for the columnar object store (``repro.core.columns``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ColumnStore, UpdateColumns, columns_from_objects
from repro.geometry.kernels import KineticBatch
from repro.workloads import make_workload


def some_objects(n=40, seed=3):
    return make_workload(n, "uniform", max_speed=3.0, seed=seed).set_a


class TestUpdateColumns:
    def test_round_trip_through_objects(self):
        objs = some_objects()
        cols = columns_from_objects(objs)
        back = cols.objects()
        assert [o.oid for o in back] == [o.oid for o in objs]
        for a, b in zip(objs, back):
            assert a.kbox.params() == b.kbox.params()

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_pack_matches_per_object_reference(self, n):
        objs = some_objects(max(n, 1))[:n]
        cols = columns_from_objects(objs)
        assert cols.oid.dtype == np.int64 and cols.oid.tolist() == [o.oid for o in objs]
        for name, box, side in (
            ("mlo", "mbr", "lo"), ("mhi", "mbr", "hi"),
            ("vlo", "vbr", "lo"), ("vhi", "vbr", "hi"),
        ):
            plane = getattr(cols, name)
            assert plane.shape == (2, n) and plane.flags.c_contiguous, name
            for d in range(2):
                want = [getattr(getattr(o.kbox, box), side)(d) for o in objs]
                assert plane[d].tolist() == want, (name, d)
        assert cols.tref.tolist() == [o.t_ref for o in objs]

    def test_empty(self):
        cols = UpdateColumns.empty()
        assert len(cols) == 0
        assert cols.objects() == []


class TestColumnStore:
    def test_add_assigns_dense_rows_and_ids(self):
        objs = some_objects(20)
        store = ColumnStore()
        rows = store.add(columns_from_objects(objs))
        assert rows.tolist() == list(range(20))
        assert len(store) == 20
        for i, obj in enumerate(objs):
            assert store.row_of(obj.oid) == i
            assert int(store.oid[i]) == obj.oid
            assert obj.oid in store

    def test_add_rejects_duplicate_ids(self):
        objs = some_objects(5)
        store = ColumnStore.from_objects(objs)
        with pytest.raises(ValueError, match="already stored"):
            store.add(columns_from_objects(objs[:1]))

    def test_growth_preserves_contents(self):
        objs = some_objects(100)
        store = ColumnStore(capacity=8)  # forces several doublings
        for k in range(0, 100, 7):
            store.add(columns_from_objects(objs[k : k + 7]))
        assert len(store) == 100
        for obj in objs:
            assert store.get(obj.oid).kbox.params() == obj.kbox.params()

    def test_apply_overwrites_in_place(self):
        objs = some_objects(10)
        store = ColumnStore.from_objects(objs)
        moved = some_objects(10, seed=9)
        upd = columns_from_objects(
            [type(o)(objs[i].oid, o.kbox.mbr, 1.0, -1.0, t_ref=2.0)
             for i, o in enumerate(moved)]
        )
        rows = store.apply(upd)
        assert rows.tolist() == list(range(10))
        assert len(store) == 10
        assert np.all(store.tref[:10] == 2.0)  # noqa: RC001

    def test_remove_swaps_with_last(self):
        objs = some_objects(6)
        store = ColumnStore.from_objects(objs)
        victim = objs[1].oid
        mover = objs[5].oid
        store.remove([victim])
        assert len(store) == 5
        assert victim not in store
        # The former last row moved into the vacated slot, id map intact.
        assert store.row_of(mover) == 1
        assert store.get(mover).kbox.params() == objs[5].kbox.params()
        # Remaining ids all resolve.
        for obj in objs:
            if obj.oid != victim:
                assert store.get(obj.oid).kbox.params() == obj.kbox.params()

    def test_remove_last_row(self):
        objs = some_objects(3)
        store = ColumnStore.from_objects(objs)
        store.remove([objs[2].oid])
        assert len(store) == 2
        assert objs[2].oid not in store

    def test_batch_view_is_zero_copy_and_bit_exact(self):
        objs = some_objects(30)
        store = ColumnStore.from_objects(objs)
        view = store.batch()
        fresh = KineticBatch.from_boxes([o.kbox for o in objs])
        for name in ("mlo", "mhi", "vlo", "vhi", "slo", "shi"):
            assert np.array_equal(getattr(view, name), getattr(fresh, name)), name
            assert getattr(view, name).base is getattr(store, name)
        assert np.array_equal(view.tref, fresh.tref)

    def test_shift_maintained_incrementally(self):
        objs = some_objects(12)
        store = ColumnStore.from_objects(objs)
        upd = columns_from_objects(
            [type(o)(o.oid, o.kbox.mbr, -0.5, 0.75, t_ref=3.0) for o in objs[:4]]
        )
        store.apply(upd)
        view = store.batch()
        fresh = KineticBatch.from_boxes([o.kbox for o in store.objects()])
        assert np.array_equal(view.slo, fresh.slo)
        assert np.array_equal(view.shi, fresh.shi)

    def test_gather(self):
        objs = some_objects(15)
        store = ColumnStore.from_objects(objs)
        rows = np.asarray([2, 7, 11])
        sub = store.gather(rows)
        assert sub.mlo.shape == (2, 3)
        assert np.array_equal(sub.tref, store.tref[rows])

    def test_bucket_keys_match_scalar_rule(self):
        store = ColumnStore()
        objs = some_objects(9)
        cols = columns_from_objects(objs)
        cols.tref[:] = [0.0, 5.0, 9.9, 10.0, 15.0, 19.99, 20.0, 25.0, 31.0]
        store.add(cols)
        keys = store.bucket_keys(10.0)
        assert keys.tolist() == [int(t // 10.0) for t in cols.tref.tolist()]

    def test_objects_view_mapping(self):
        objs = some_objects(8)
        store = ColumnStore.from_objects(objs)
        view = store.as_mapping()
        assert len(view) == 8
        assert set(view) == {o.oid for o in objs}
        assert view[objs[3].oid].kbox.params() == objs[3].kbox.params()
        with pytest.raises(KeyError):
            view[999_999]
