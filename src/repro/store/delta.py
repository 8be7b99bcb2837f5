"""Generic array deltas: diff a logical state against a base, replay it back.

A snapshot chain (:mod:`repro.store.format`) stores the *physical* segments;
this module defines what they mean. A delta file's manifest carries a spec
``{"arrays": {logical_name: op}}`` enumerating **every** logical array of the
reconstructed state, in order. Ops:

* ``{"op": "ref", "of": base_name}`` — unchanged; reuse the base's array
  (zero bytes stored). The writer always refs the same name; readers accept
  any ``of``, because files written while the index cache was persisted ref
  renamed segments.
* ``{"op": "alias", "of": new_name}`` — this name shares the *same buffer*
  as another name of the new state; reconstruction binds the two names to
  one object. Only files written while the index cache was persisted carry
  it: the writer no longer emits one.
* ``{"op": "patch", "of": base_name, ...}`` — row-level delta: the new array
  extends the base (same dtype and trailing dims, at least as many rows);
  only the changed prefix rows, their indices, and the appended tail are
  stored (segments ``<name>#d/rows``, ``<name>#d/idx``, ``<name>#d/tail``).
  Rows are compared as raw bytes, so NaNs and negative zeros are exact.
* ``{"op": "full"}`` — stored outright under the logical name (fallback for
  new, reshaped, shrunk, or mostly-rewritten arrays — chosen automatically
  whenever a patch would not be smaller).

:func:`diff_bundle` produces the spec plus the physical segments from the
new state's ordered arrays and the base state's arrays, pairing each name
with the base array of the same name; :func:`apply_bundle` replays a spec
over the base arrays and yields the new state byte-for-byte, which is what
makes base → delta → load equivalent to a single full snapshot.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..exceptions import StoreError
from .format import buffer_key

#: Segment-name suffixes of one row-patch (changed rows, their indices, tail).
_PATCH_SUFFIXES = ("#d/rows", "#d/idx", "#d/tail")

#: Per-segment overhead estimate (alignment padding + manifest entry) used
#: when deciding whether a patch actually beats storing the array outright.
_SEGMENT_OVERHEAD = 96


def _word_rows(array: np.ndarray) -> np.ndarray:
    """``(rows, row_bytes / w)`` view of an array's raw bytes as unsigned w-byte words.

    ``w`` is the widest of 8, 4, 2 and 1 that divides the row width, so two
    rows' words are equal exactly when their bytes are, with a w times
    smaller compare than byte by byte.
    """
    rows = array.shape[0]
    if array.size == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    byte_rows = np.ascontiguousarray(array).view(np.uint8).reshape(rows, -1)
    word = next(w for w in (8, 4, 2, 1) if byte_rows.shape[1] % w == 0)
    return byte_rows.view(np.dtype(f"u{word}"))


def changed_rows(new_prefix: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Indices of rows whose raw bytes differ between two same-shape arrays."""
    if new_prefix.shape != base.shape:
        raise StoreError("changed_rows requires equally-shaped arrays")
    if new_prefix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    differs = np.any(_word_rows(new_prefix) != _word_rows(base), axis=1)
    return np.flatnonzero(differs).astype(np.int64, copy=False)


def diff_array(
    new: np.ndarray, base: np.ndarray | None
) -> tuple[dict, "dict[str, np.ndarray]"]:
    """Delta op for one array: ``(spec, segments)`` (segments keyed by suffix).

    ``base=None`` (or an incompatible base) falls back to ``full``; a
    byte-identical base yields ``ref``; otherwise a row patch is produced
    unless storing the array outright would be at least as small.

    When ``new`` *is* the base's buffer (same data pointer, dtype and shape)
    the answer is ``ref`` without comparing a byte: a session's recorded base
    holds the very arrays it published, and published arrays are never
    mutated (see ``repro.store.session._record_base``). An equal-bytes array
    in another buffer still goes through the row compare.
    """
    new = np.ascontiguousarray(new)
    if (
        base is None
        or new.ndim == 0
        or base.ndim != new.ndim
        or base.dtype != new.dtype
        or base.shape[1:] != new.shape[1:]
        or base.shape[0] > new.shape[0]
    ):
        return {"op": "full"}, {"": new}
    base = np.ascontiguousarray(base)
    if buffer_key(base) == buffer_key(new):
        return {"op": "ref"}, {}
    base_rows = base.shape[0]
    changed = changed_rows(new[:base_rows], base)
    if base_rows == new.shape[0] and changed.size == 0:
        return {"op": "ref"}, {}
    row_bytes = new.itemsize * int(np.prod(new.shape[1:], dtype=np.int64)) if new.ndim > 1 else new.itemsize
    tail = new[base_rows:]
    patch_cost = (
        changed.size * (row_bytes + changed.itemsize)
        + tail.shape[0] * row_bytes
        + len(_PATCH_SUFFIXES) * _SEGMENT_OVERHEAD
    )
    if patch_cost >= new.nbytes + _SEGMENT_OVERHEAD:
        return {"op": "full"}, {"": new}
    spec = {
        "op": "patch",
        "dtype": new.dtype.str,
        "shape": list(new.shape),
        "base_rows": int(base_rows),
    }
    segments = {
        "#d/rows": np.ascontiguousarray(new[changed]),
        "#d/idx": changed,
        "#d/tail": tail,
    }
    return spec, segments


def apply_array(
    spec: dict, base: np.ndarray | None, segment: Callable[[str], np.ndarray]
) -> np.ndarray:
    """Inverse of :func:`diff_array` for one ``full``/``ref``/``patch`` op."""
    op = spec["op"]
    if op == "full":
        return segment("")
    if op == "ref":
        if base is None:
            raise StoreError("delta refs a base array that does not exist")
        return base
    if op != "patch":
        raise StoreError(f"unknown delta op {op!r}")
    if base is None:
        raise StoreError("delta patches a base array that does not exist")
    shape = tuple(spec["shape"])
    base_rows = int(spec["base_rows"])
    if base.shape[0] != base_rows or base.shape[1:] != shape[1:]:
        raise StoreError(
            f"delta patch expects a base of shape {(base_rows, *shape[1:])}, "
            f"got {base.shape}"
        )
    out = np.empty(shape, dtype=np.dtype(spec["dtype"]))
    out[:base_rows] = base
    idx = segment("#d/idx")
    if idx.size:
        out[idx] = segment("#d/rows")
    tail = segment("#d/tail")
    if tail.shape[0]:
        out[base_rows:] = tail
    out.flags.writeable = False
    return out


def diff_bundle(
    new_arrays: "Mapping[str, np.ndarray]",
    base_arrays: "Mapping[str, np.ndarray]",
) -> tuple[dict, "dict[str, np.ndarray]"]:
    """Diff an ordered logical state against a base state.

    Returns ``(spec, segments)``: the manifest ``delta`` tree (``{"arrays":
    {name: op}}``, enumerating every logical name of ``new_arrays`` in
    order) and the physical segments to store; every name gets its own op.
    """
    specs: dict[str, dict] = {}
    segments: dict[str, np.ndarray] = {}
    for name, array in new_arrays.items():
        spec, array_segments = diff_array(array, base_arrays.get(name))
        if spec["op"] in ("ref", "patch"):
            spec["of"] = name
        specs[name] = spec
        for suffix, segment in array_segments.items():
            segments[name + suffix] = segment
    return {"arrays": specs}, segments


def apply_bundle(
    delta: dict,
    base_arrays: "Mapping[str, np.ndarray]",
    segment_of: Callable[[str], np.ndarray],
) -> "dict[str, np.ndarray]":
    """Replay a :func:`diff_bundle` spec over the base state.

    ``segment_of`` resolves a physical segment name (usually
    ``snapshot.array``). Returns the reconstructed logical arrays, ordered as
    the spec enumerates them; ``alias`` entries are bound to the *same
    object* as their target so pointer-aliasing survives reconstruction.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, spec in delta["arrays"].items():
        if spec["op"] == "alias":
            target = spec["of"]
            if target not in arrays:
                raise StoreError(f"delta aliases {name!r} to unknown name {target!r}")
            arrays[name] = arrays[target]
            continue
        base = base_arrays.get(spec.get("of", name))
        arrays[name] = apply_array(spec, base, lambda suffix: segment_of(name + suffix))
    return arrays


def snapshot_arrays(snapshot) -> "dict[str, np.ndarray]":
    """All logical arrays of one snapshot, manifest aliases bound to one object.

    Unlike calling ``snapshot.array`` per name, aliased entries come back as
    the *same* array object as their canonical segment (even in copy mode),
    so pointer-aliasing survives a load → diff or load → re-save round trip.
    """
    alias_of = snapshot.alias_map()
    arrays: dict[str, np.ndarray] = {}
    for name in snapshot.names():
        canonical = alias_of.get(name)
        if canonical is not None and canonical in arrays:
            arrays[name] = arrays[canonical]
        else:
            arrays[name] = snapshot.array(name)
    return arrays


def resolve_chain_arrays(chain) -> "dict[str, np.ndarray]":
    """Fold a :class:`~repro.store.format.SnapshotChain` into logical arrays.

    The base contributes its segments directly (manifest aliases bound to
    one object, preserving pointer equality even in copy mode); each delta
    then rewrites the mapping through :func:`apply_bundle`. The result is
    byte-for-byte the array set a single full snapshot of the tip state
    would hold.
    """
    arrays = snapshot_arrays(chain.base)
    for snapshot in chain.snapshots[1:]:  # each has a link, so a delta spec (Snapshot._parse)
        arrays = apply_bundle(snapshot.delta, arrays, snapshot.array)
    return arrays
