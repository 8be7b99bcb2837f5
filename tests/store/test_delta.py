"""Array deltas: diff/apply round trips, op selection, and old files' alias ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.store import delta as delta_module
from repro.store.delta import (
    apply_array,
    apply_bundle,
    changed_rows,
    diff_array,
    diff_bundle,
)


def bytes_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact byte equality (shape + dtype + raw bytes; NaN-safe)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _roundtrip(new, base):
    spec, segments = diff_array(new, base)
    return spec, apply_array(spec, base, lambda suffix: segments[suffix])


class TestDiffArray:
    def test_identical_base_is_a_zero_byte_ref(self):
        base = np.arange(24, dtype=np.float32).reshape(6, 4)
        spec, segments = diff_array(base.copy(), base)
        assert spec == {"op": "ref"}
        assert segments == {}

    def test_pure_append_stores_only_the_tail(self):
        base = np.arange(1024, dtype=np.float32).reshape(64, 16)
        new = np.concatenate([base, np.full((2, 16), 9.0, dtype=np.float32)])
        spec, segments = diff_array(new, base)
        assert spec["op"] == "patch"
        assert segments["#d/idx"].size == 0
        assert segments["#d/tail"].shape == (2, 16)
        restored = apply_array(spec, base, lambda s: segments[s])
        assert bytes_equal(restored, new)
        assert not restored.flags.writeable

    def test_changed_rows_patch_is_byte_exact_with_nans(self):
        base = np.arange(40, dtype=np.float64).reshape(10, 4)
        new = base.copy()
        new[3, 1] = np.nan
        new[7] = -0.0
        spec, restored = _roundtrip(new, base)
        assert spec["op"] == "patch"
        assert bytes_equal(restored, new)  # NaN payload and -0.0 exact

    def test_nan_in_unchanged_rows_does_not_patch(self):
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        base[1, 2] = np.nan
        assert changed_rows(base.copy(), base).size == 0

    def test_incompatible_bases_fall_back_to_full(self):
        new = np.arange(12, dtype=np.float32).reshape(3, 4)
        for base in (
            None,
            np.arange(12, dtype=np.float64).reshape(3, 4),  # dtype change
            np.arange(16, dtype=np.float32).reshape(2, 8),  # trailing dims change
            np.arange(20, dtype=np.float32).reshape(5, 4),  # shrunk
        ):
            spec, segments = diff_array(new, base)
            assert spec == {"op": "full"}
            assert bytes_equal(segments[""], new)

    def test_mostly_rewritten_array_stores_full(self):
        base = np.zeros((100, 8), dtype=np.float32)
        new = np.ones((100, 8), dtype=np.float32)  # every row changed
        spec, _ = diff_array(new, base)
        assert spec["op"] == "full"

    def test_scalar_arrays_store_full(self):
        spec, segments = diff_array(np.float64(3.5), np.float64(3.5))
        assert spec["op"] == "full"
        assert segments[""] == np.float64(3.5)

    def test_changed_rows_rejects_shape_mismatch(self):
        with pytest.raises(StoreError, match="equally-shaped"):
            changed_rows(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_apply_rejects_bad_specs(self):
        base = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(StoreError, match="unknown delta op"):
            apply_array({"op": "wat"}, base, lambda s: None)
        with pytest.raises(StoreError, match="does not exist"):
            apply_array({"op": "ref"}, None, lambda s: None)
        with pytest.raises(StoreError, match="does not exist"):
            apply_array(
                {"op": "patch", "dtype": "<f4", "shape": [3, 2], "base_rows": 3},
                None,
                lambda s: None,
            )
        with pytest.raises(StoreError, match="expects a base of shape"):
            apply_array(
                {"op": "patch", "dtype": "<f4", "shape": [5, 2], "base_rows": 4},
                base,
                lambda s: None,
            )


class TestSharedBufferRef:
    """A base that *is* the new buffer is a ``ref`` without a byte compare."""

    @pytest.fixture()
    def base(self) -> np.ndarray:
        base = np.arange(48, dtype=np.float32).reshape(12, 4)
        base.flags.writeable = False  # published arrays are never mutated
        return base

    def test_the_base_buffer_is_a_ref_without_a_compare(self, base, monkeypatch):
        def no_compare(*args):
            raise AssertionError("compared the bytes of a shared buffer")

        monkeypatch.setattr(delta_module, "changed_rows", no_compare)
        assert diff_array(base, base) == ({"op": "ref"}, {})
        assert diff_array(base[:], base) == ({"op": "ref"}, {})  # new object, one buffer

    def test_equal_bytes_in_another_buffer_still_compare(self, base, monkeypatch):
        calls = []

        def counting(new_prefix, old):
            calls.append(new_prefix.shape)
            return changed_rows(new_prefix, old)

        monkeypatch.setattr(delta_module, "changed_rows", counting)
        assert diff_array(base.copy(), base) == ({"op": "ref"}, {})
        assert calls == [base.shape]

    def test_same_pointer_with_another_shape_or_dtype_is_not_identical(self):
        longer = np.arange(4096, dtype=np.float32).reshape(256, 16)
        prefix = longer[:250]  # same data pointer, fewer rows
        spec, restored = _roundtrip(longer, prefix)
        assert spec["op"] == "patch" and bytes_equal(restored, longer)
        for other in (longer.view(np.int32), longer.reshape(128, 32)):
            spec, restored = _roundtrip(other, longer)
            assert spec["op"] == "full" and bytes_equal(restored, other)


class TestDiffBundle:
    def test_bundle_roundtrip_and_op_mix(self):
        rng = np.random.default_rng(5)
        base_plane = rng.normal(size=(20, 6)).astype(np.float32)
        base = {"a": base_plane, "b": np.arange(200, dtype=np.int64)}
        new_plane = np.concatenate([base_plane, rng.normal(size=(3, 6)).astype(np.float32)])
        new = {
            "a": new_plane,
            "b": np.arange(204, dtype=np.int64),  # appended
            "c": rng.normal(size=(4, 4)).astype(np.float32),  # brand new
        }
        spec, segments = diff_bundle(new, base)
        assert spec["arrays"]["a"]["op"] == "patch"
        assert spec["arrays"]["b"]["op"] == "patch"
        assert spec["arrays"]["c"]["op"] == "full"
        restored = apply_bundle(spec, base, lambda name: segments[name])
        assert list(restored) == list(new)
        for name in new:
            assert bytes_equal(restored[name], new[name])

    def test_an_old_alias_op_is_bound_to_one_object(self):
        """Old deltas (index cache persisted) carry ``alias`` ops; new ones do not."""
        plane = np.random.default_rng(6).normal(size=(8, 3)).astype(np.float32)
        spec, segments = diff_bundle({"table/vectors": plane, "other": plane}, {})
        assert spec["arrays"]["other"] == {"op": "full"}
        alias = {"op": "alias", "of": "table/vectors"}
        old = {"arrays": {"table/vectors": {"op": "full"}, "cache/vectors": alias}}
        restored = apply_bundle(old, {}, lambda name: segments[name])
        assert restored["cache/vectors"] is restored["table/vectors"]

    def test_apply_bundle_follows_a_ref_to_another_name(self):
        """Files written while the index cache was persisted ref renamed segments."""
        plane = np.random.default_rng(7).normal(size=(9, 2)).astype(np.float32)
        spec = {"arrays": {"cache/e0/vectors": {"op": "ref", "of": "table/vectors"}}}
        restored = apply_bundle(spec, {"table/vectors": plane}, lambda name: None)
        assert restored["cache/e0/vectors"] is plane

    def test_an_array_under_a_new_name_is_stored_outright(self):
        """The writer pairs names only: a byte-identical base array elsewhere is not reffed."""
        plane = np.random.default_rng(8).normal(size=(11, 4)).astype(np.float32)
        spec, segments = diff_bundle({"store/block1": plane.copy()}, {"table/vectors": plane})
        assert spec["arrays"]["store/block1"] == {"op": "full"}
        assert bytes_equal(segments["store/block1"], plane)

    def test_apply_bundle_rejects_dangling_links(self):
        with pytest.raises(StoreError, match="unknown name"):
            apply_bundle({"arrays": {"x": {"op": "alias", "of": "missing"}}}, {}, lambda n: None)
        with pytest.raises(StoreError, match="does not exist"):
            apply_bundle({"arrays": {"x": {"op": "ref", "of": "gone"}}}, {}, lambda n: None)
