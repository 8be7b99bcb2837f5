"""Approximate nearest-neighbour substrate: brute force, HNSW, mutual top-K.

Backend selection
-----------------
Every backend implements :class:`NearestNeighborIndex` (``build`` then batched
``query``) and fills the top-K outputs of the shared query engine
(:mod:`repro.ann.engine`), so the merging stage swaps them via
``MergingConfig.index``:

* ``"auto"`` (default) — exact :class:`BruteForceIndex` when the indexed side
  has at most ``brute_force_limit`` rows (default 4096, where one blocked
  distance-matrix pass beats graph construction), :class:`HNSWIndex` above it.
* ``"brute-force"`` — always exact; the reference the HNSW recall tests
  compare against. Queries take the engine's blocked dense top-k path
  (``k = 1``: ``argmin``, with ``argpartition`` deciding exact ties as before).
  A K = 1 merge of two exact sides is one scan and builds no index
  (:func:`~repro.ann.mutual.exact_top1_pairs`).
* ``"hnsw"`` — array-backed navigable-small-world graph (flat CSR-style
  neighbour tables, batched distance kernels, incremental ``extend``).
  Tuned by ``hnsw_max_degree`` / ``hnsw_ef_construction`` / ``hnsw_ef_search``.

Native kernel
-------------
With a C toolchain present *and* a wheel-bundled ILP64 OpenBLAS (the
``scipy-openblas64`` builds standard numpy/scipy wheels ship — MKL- or
distro-linked numpy is not recognized), HNSW's insert/search traversals run
through the runtime-compiled kernel (:mod:`repro.ann.native`,
``repro/ann/_ann_kernel.c``): same algorithms, same OpenBLAS calls,
byte-identical graphs and results, gated by one load-time self-test.
Otherwise the pure-Python/numpy paths run, with the
reason recorded in ``repro.ann.native.disabled_reason``. ``REPRO_NATIVE=0``
forces the fallback for everything the kernel governs;
``REPRO_NATIVE=require`` makes unavailability a hard error (used by the
benchmark smoke leg).

Kernel variants
---------------
The native kernel is one sequential HNSW build / query, compiled in two variants that both produce the numpy paths' bytes
(each must pass the load-time self-test against the numpy reference before
it serves; ``REPRO_NATIVE=0`` forces the numpy paths):

* **scalar** — the C kernel compiled portably (``-O2``), calling the
  wheel-bundled OpenBLAS for GEMV / dot exactly as numpy does.
* **AVX2** — the same source compiled a second time with
  ``-mavx2 -mfma -ffp-contract=off``, replacing the BLAS dot/GEMV calls
  with hand-scheduled micro-kernels that reproduce OpenBLAS's SkylakeX
  reduction order bit for bit. Selected automatically when the CPU
  supports AVX2 *and* the compiled variant passes the identity self-test;
  otherwise the scalar variant serves. ``REPRO_NATIVE_VARIANT`` ∈
  ``auto`` (default) | ``scalar`` | ``avx2`` pins the choice. Compiled
  variants are cached keyed on (source digest, flags, CPU features).

The exact scan (one blocked GEMM per query batch) has no native variant.

Index reuse
-----------
Every merge builds the indexes it queries, and a serving session builds its
query index once per integrated table. :class:`IndexCache` is only what the
frozen benchmark replay still hands to merges (an exact-hit lookup); no
production path creates one.

All distance kernels live in :mod:`repro.ann.distances`;
:class:`~repro.ann.distances.PreparedVectors` hoists per-row statistics
(norms / squared norms) out of the per-query hot path while staying
bit-for-bit compatible with :func:`~repro.ann.distances.distance_matrix`.
"""

from .base import NearestNeighborIndex
from .brute_force import BruteForceIndex
from .cache import IndexCache  # bench compat: item 1 deletes
from .distances import (
    METRICS,
    PreparedVectors,
    batched_pairwise_distances,
    cosine_distance_matrix,
    distance_matrix,
    euclidean_distance_matrix,
    paired_distances,
    pairwise_distances,
)
from .hnsw import HNSWIndex
from .mutual import MutualPair, create_index, mutual_top_k, resolve_backend, top_k_pairs

__all__ = [
    "NearestNeighborIndex",
    "BruteForceIndex",
    "HNSWIndex",
    "IndexCache",  # bench compat: item 1 deletes
    "MutualPair",
    "create_index",
    "resolve_backend",
    "mutual_top_k",
    "top_k_pairs",
    "METRICS",
    "PreparedVectors",
    "distance_matrix",
    "cosine_distance_matrix",
    "euclidean_distance_matrix",
    "paired_distances",
    "pairwise_distances",
    "batched_pairwise_distances",
]
