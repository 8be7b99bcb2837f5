/* Native ANN kernel: HNSW insert/search loops.
 *
 * This file is compiled at runtime by repro/ann/native.py (plain `gcc -O2
 * -shared -fPIC`, no build system) and drives the same algorithms as the
 * pure-Python indexes — bit for bit.  The byte-identity argument:
 *
 *  - Every distance evaluation calls the *same* OpenBLAS routines the numpy
 *    path calls, through function pointers resolved from numpy's own bundled
 *    shared library: `cblas_sgemv` (row-major, NoTrans) for >= 2 rows and
 *    `cblas_sdot` for a single row, mirroring numpy's dispatch for
 *    `(k, d) @ (d,)`.  The surrounding float32 arithmetic (1 - sim, clip)
 *    is a fixed sequence of individually-rounded IEEE ops identical to the
 *    numpy ufunc chain.  The one distance is cosine on unit rows; euclidean
 *    is pruning's, which never runs on an index.
 *  - Inputs are finite: `HNSWIndex` refuses a row with a non-finite element,
 *    so every distance is finite and >= +0.0: the clip never produces NaN
 *    or -0.0.
 *  - The best-first search pops candidates in a strict total order
 *    ((distance, node) lexicographic — node ids are unique), so heap
 *    *content* after any push/pop sequence is implementation-independent;
 *    Python's heapq and the binary heap below produce identical result sets.
 *    The heaps hold each item as one 64-bit key, (distance bits << 32) |
 *    node: for finite floats >= +0.0 the bit pattern orders like the value,
 *    so integer key order *is* that strict order (nodes stay below 2^31;
 *    larger indexes run the Python path).  Replacing the result heap's top
 *    when it is full drops the same item a push and a pop would.
 *  - Neighbour selection sorts by the same strict total order (an in-place
 *    heapsort of the keys); a k = 1 query takes the minimum key instead,
 *    which is the first item of that sort.  The overflow prune replicates
 *    `np.argsort(kind="stable")` with a stable insertion sort.
 *
 * The Python wrapper verifies all of this empirically at load time (build +
 * query byte-comparison against the pure-Python path) and refuses to enable
 * the kernel otherwise; `tests/ann/` re-checks it on every run.
 *
 * ANN_VARIANT_AVX2 (same contract): the file is compiled a second time with
 * `-mavx2 -mfma -ffp-contract=off`; the short-segment sgemv/sdot BLAS calls
 * are replaced by micro-kernels replicating the exact FMA and reduction
 * order of OpenBLAS's SkylakeX kernels (bit-equal, gated by the load-time
 * self-test; shapes outside the verified envelope fall through to the BLAS
 * function pointers).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef ANN_VARIANT_AVX2
#include <immintrin.h>
#endif

typedef int64_t blasint;

/* CBLAS constants (values fixed by the CBLAS standard). */
#define CBLAS_ROW_MAJOR 101
#define CBLAS_NO_TRANS 111

typedef void (*sgemv_fn_t)(int order, int trans, blasint m, blasint n, float alpha,
                           const float *a, blasint lda, const float *x, blasint incx,
                           float beta, float *y, blasint incy);
typedef float (*sdot_fn_t)(blasint n, const float *x, blasint incx, const float *y,
                           blasint incy);

static sgemv_fn_t sgemv_fn = 0;
static sdot_fn_t sdot_fn = 0;

void ann_set_blas(void *sgemv_ptr, void *sdot_ptr) {
    sgemv_fn = (sgemv_fn_t)sgemv_ptr;
    sdot_fn = (sdot_fn_t)sdot_ptr;
}

/* 0 = scalar build, 1 = AVX2 build — lets the loader tag caches honestly. */
int ann_kernel_variant(void) {
#ifdef ANN_VARIANT_AVX2
    return 1;
#else
    return 0;
#endif
}

#ifdef ANN_VARIANT_AVX2
/* ------------------------------------------------- AVX2 micro-kernels
 *
 * Bit-exact emulations of OpenBLAS's SkylakeX `sdot_k` / `sgemv_t` kernels
 * (inc == 1, row-major, alpha == 1, beta == 0), derived from disassembly of
 * numpy's bundled libscipy_openblas64_.  They exist to skip the BLAS call
 * overhead on the short candidate-row segments this kernel feeds, and they
 * take one pointer per row, so those rows are read in place from the base
 * matrix; the dispatch in `base_row_distances` only uses them inside the
 * envelope the emulation was verified on and falls back to the real BLAS
 * pointers (on gathered rows) elsewhere.  This
 * translation unit is compiled with `-ffp-contract=off` so the compiler
 * cannot fuse the scalar tail ops — every FMA below is explicit. */

static float sdot_sky(int64_t n, const float *x, const float *y) {
    int64_t n1 = n & ~(int64_t)31;
    double sum1 = 0.0;
    if (n1) {
        __m256 al0 = _mm256_setzero_ps(), ah0 = _mm256_setzero_ps();
        __m256 al1 = _mm256_setzero_ps(), ah1 = _mm256_setzero_ps();
        __m256 al2 = _mm256_setzero_ps(), ah2 = _mm256_setzero_ps();
        __m256 al3 = _mm256_setzero_ps(), ah3 = _mm256_setzero_ps();
        int64_t i = 0;
        int64_t n64 = n & ~(int64_t)63;
        for (; i < n64; i += 64) {
            al0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), al0);
            ah0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), _mm256_loadu_ps(y + i + 8), ah0);
            al1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16), _mm256_loadu_ps(y + i + 16), al1);
            ah1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24), _mm256_loadu_ps(y + i + 24), ah1);
            al2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 32), _mm256_loadu_ps(y + i + 32), al2);
            ah2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 40), _mm256_loadu_ps(y + i + 40), ah2);
            al3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 48), _mm256_loadu_ps(y + i + 48), al3);
            ah3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 56), _mm256_loadu_ps(y + i + 56), ah3);
        }
        /* zmm -> ymm fold: lane j + lane j+8 */
        __m256 v0 = _mm256_add_ps(al0, ah0);
        __m256 v1 = _mm256_add_ps(al1, ah1);
        __m256 v2 = _mm256_add_ps(al2, ah2);
        __m256 v3 = _mm256_add_ps(al3, ah3);
        /* one optional 32-wide chunk continuing in the folded accumulators */
        for (; i < n1; i += 32) {
            v0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), v0);
            v1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), _mm256_loadu_ps(y + i + 8), v1);
            v2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16), _mm256_loadu_ps(y + i + 16), v2);
            v3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24), _mm256_loadu_ps(y + i + 24), v3);
        }
        __m256 s = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(v0, v1), v2), v3);
        __m128 t = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
        t = _mm_hadd_ps(t, t);
        t = _mm_hadd_ps(t, t);
        sum1 = (double)_mm_cvtss_f32(t);
    }
    double sum0 = 0.0;
    for (int64_t i = n1; i < n; i++) {
        float p = x[i] * y[i];
        sum0 += (double)p;
    }
    return (float)(sum1 + sum0);
}

static void kernel_4x4(int64_t n, const float *a0, const float *a1,
                       const float *a2, const float *a3, const float *x,
                       float *yb) {
    __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
    __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        __m128 xv = _mm_loadu_ps(x + i);
        c0 = _mm256_insertf128_ps(c0, _mm_fmadd_ps(_mm_loadu_ps(a0 + i), xv, _mm256_castps256_ps128(c0)), 0);
        c1 = _mm256_insertf128_ps(c1, _mm_fmadd_ps(_mm_loadu_ps(a1 + i), xv, _mm256_castps256_ps128(c1)), 0);
        c2 = _mm256_insertf128_ps(c2, _mm_fmadd_ps(_mm_loadu_ps(a2 + i), xv, _mm256_castps256_ps128(c2)), 0);
        c3 = _mm256_insertf128_ps(c3, _mm_fmadd_ps(_mm_loadu_ps(a3 + i), xv, _mm256_castps256_ps128(c3)), 0);
        i += 4; rem -= 4;
    }
    if (rem & 8) {
        __m256 xv = _mm256_loadu_ps(x + i);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i), xv, c0);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i), xv, c1);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i), xv, c2);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i), xv, c3);
        i += 8; rem -= 8;
    }
    while (rem) {
        __m256 xlo = _mm256_loadu_ps(x + i);
        __m256 xhi = _mm256_loadu_ps(x + i + 8);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i), xlo, c0);
        c0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + i + 8), xhi, c0);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i), xlo, c1);
        c1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + i + 8), xhi, c1);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i), xlo, c2);
        c2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + i + 8), xhi, c2);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i), xlo, c3);
        c3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + i + 8), xhi, c3);
        i += 16; rem -= 16;
    }
    __m128 t0 = _mm_add_ps(_mm256_extractf128_ps(c0, 1), _mm256_castps256_ps128(c0));
    __m128 t1 = _mm_add_ps(_mm256_extractf128_ps(c1, 1), _mm256_castps256_ps128(c1));
    __m128 t2 = _mm_add_ps(_mm256_extractf128_ps(c2, 1), _mm256_castps256_ps128(c2));
    __m128 t3 = _mm_add_ps(_mm256_extractf128_ps(c3, 1), _mm256_castps256_ps128(c3));
    t0 = _mm_hadd_ps(t0, t0); t0 = _mm_hadd_ps(t0, t0);
    t1 = _mm_hadd_ps(t1, t1); t1 = _mm_hadd_ps(t1, t1);
    t2 = _mm_hadd_ps(t2, t2); t2 = _mm_hadd_ps(t2, t2);
    t3 = _mm_hadd_ps(t3, t3); t3 = _mm_hadd_ps(t3, t3);
    yb[0] = _mm_cvtss_f32(t0);
    yb[1] = _mm_cvtss_f32(t1);
    yb[2] = _mm_cvtss_f32(t2);
    yb[3] = _mm_cvtss_f32(t3);
}

static void kernel_4x2(int64_t n, const float *a0, const float *a1,
                       const float *x, float *yb) {
    __m128 c0 = _mm_setzero_ps(), c1 = _mm_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        __m128 xv = _mm_loadu_ps(x + i);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i), xv));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i), xv));
        i += 4; rem -= 4;
    }
    while (rem) {
        __m128 xv0 = _mm_loadu_ps(x + i);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i), xv0));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i), xv0));
        __m128 xv1 = _mm_loadu_ps(x + i + 4);
        c0 = _mm_add_ps(c0, _mm_mul_ps(_mm_loadu_ps(a0 + i + 4), xv1));
        c1 = _mm_add_ps(c1, _mm_mul_ps(_mm_loadu_ps(a1 + i + 4), xv1));
        i += 8; rem -= 8;
    }
    c0 = _mm_hadd_ps(c0, c0); c0 = _mm_hadd_ps(c0, c0);
    c1 = _mm_hadd_ps(c1, c1); c1 = _mm_hadd_ps(c1, c1);
    yb[0] = _mm_cvtss_f32(c0);
    yb[1] = _mm_cvtss_f32(c1);
}

static void kernel_4x1(int64_t n, const float *a, const float *x, float *yb) {
    __m128 ce = _mm_setzero_ps(), co = _mm_setzero_ps();
    int64_t i = 0, rem = n;
    if (rem & 4) {
        ce = _mm_add_ps(ce, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(x + i)));
        i += 4; rem -= 4;
    }
    while (rem) {
        ce = _mm_add_ps(ce, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(x + i)));
        co = _mm_add_ps(co, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(x + i + 4)));
        i += 8; rem -= 8;
    }
    ce = _mm_add_ps(ce, co);
    ce = _mm_hadd_ps(ce, ce); ce = _mm_hadd_ps(ce, ce);
    yb[0] = _mm_cvtss_f32(ce);
}

/* k row pointers into `base` (row j is base + rows[j] * d, row stride d),
 * alpha == 1, beta == 0: out[j] = dot(row_j, x) — what OpenBLAS computes for
 * the same rows gathered into a contiguous k x d matrix, in the same 4/2/1
 * row grouping.  Requires d % 4 == 0, 8 < d <= 4096, k >= 1, and
 * k * d < SGEMV_THREADED_MN.
 * `+ 0.0f` launders -0.0f to +0.0f exactly as the OpenBLAS epilogue does. */
/* OpenBLAS's sgemv interface runs single-threaded only below this m * n
 * (115200 * GEMM_MULTITHREAD_THRESHOLD, default 4); above it the rows are
 * split across threads, which changes their 4/2/1 grouping, so larger shapes
 * go to the BLAS function pointer itself. */
#define SGEMV_THREADED_MN 460800

static void sgemv_sky(int64_t k, int64_t d, const float *base, const int64_t *rows,
                      const float *x, float *out) {
    int64_t j = 0;
    int64_t n1 = k >> 2;
    float yb[4];
    for (int64_t g = 0; g < n1; g++) {
        const int64_t *r = rows + 4 * g;
        kernel_4x4(d, base + r[0] * d, base + r[1] * d, base + r[2] * d, base + r[3] * d,
                   x, yb);
        out[4 * g] = yb[0] + 0.0f;
        out[4 * g + 1] = yb[1] + 0.0f;
        out[4 * g + 2] = yb[2] + 0.0f;
        out[4 * g + 3] = yb[3] + 0.0f;
    }
    j = 4 * n1;
    if (k & 2) {
        kernel_4x2(d, base + rows[j] * d, base + rows[j + 1] * d, x, yb);
        out[j] = yb[0] + 0.0f;
        out[j + 1] = yb[1] + 0.0f;
        j += 2;
    }
    if (k & 1) {
        kernel_4x1(d, base + rows[j] * d, x, yb);
        out[j] = yb[0] + 0.0f;
    }
}
#endif /* ANN_VARIANT_AVX2 */

/* ------------------------------------------------------------------ state */

typedef struct {
    const float *base; /* (n, d) unit rows */
    int64_t d;
    int num_layers;
    int64_t **neighbors; /* per layer: (n, cap) int64 */
    float **dists;       /* per layer: (n, cap) float32 */
    int64_t **degrees;   /* per layer: (n,) int64 */
    const int64_t *caps; /* per layer capacity */
    int64_t max_degree;
} graph_t;

/* A heap item packed into one 64-bit key: (distance bits << 32) | node.
 * Every distance is finite and >= +0.0 (see the header), and the IEEE bit
 * pattern of such a float orders exactly like its value, so unsigned key
 * order is the strict (distance, node) order of Python's tuples. */
typedef uint64_t item_t;

#define NODE_BITS 0xffffffffULL

static inline item_t make_item(float dist, int64_t node) {
    uint32_t bits;
    memcpy(&bits, &dist, sizeof bits);
    return ((item_t)bits << 32) | (uint32_t)node;
}
static inline float item_dist(item_t item) {
    uint32_t bits = (uint32_t)(item >> 32);
    float dist;
    memcpy(&dist, &bits, sizeof dist);
    return dist;
}
static inline int64_t item_node(item_t item) { return (int64_t)(uint32_t)item; }

/* One binary max-heap serves every ordering, by storing a transform of the
 * item: the candidate heap stores ~item (its top is the nearest item), the
 * result heap stores item ^ NODE_BITS (its top is the farthest item, the
 * lower node first among equal distances: the order of Python's
 * (-distance, node) tuples). */
static void heap_push(item_t *heap, int64_t *size, item_t value) {
    int64_t pos = (*size)++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (heap[parent] >= value) break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = value;
}

/* Place `value` at `pos` and sift it down a heap of `size` entries; the
 * larger child is picked without a branch. */
static void heap_sift_down(item_t *heap, int64_t size, int64_t pos, item_t value) {
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size) break;
        int64_t other = child + (child + 1 < size);
        child = heap[other] > heap[child] ? other : child;
        if (heap[child] <= value) break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = value;
}

/* Sort items ascending (heapsort: in place, O(n log n), no callback). */
static void sort_items(item_t *items, int64_t n) {
    for (int64_t i = n / 2 - 1; i >= 0; i--) heap_sift_down(items, n, i, items[i]);
    for (int64_t end = n - 1; end > 0; end--) {
        item_t last = items[end];
        items[end] = items[0];
        heap_sift_down(items, end, 0, last);
    }
}

/* ----------------------------------------------------------- distances */

/* cosine distances from the prepared query to base[rows], replicating
 * PreparedVectors.row_distances (including numpy's k == 1 sdot dispatch),
 * so the byte-identity argument is carried in one place.  `base` is C-contiguous
 * with row stride d (PreparedVectors.native_rows), so sdot and the AVX2
 * micro-kernels read each candidate row in place; only the BLAS sgemv_fn
 * call needs a contiguous k x d matrix and copies the rows into `gather`. */
static void base_row_distances(const float *base, int64_t d, const float *query,
                               const int64_t *rows, int64_t k, float *gather,
                               float *out) {
    if (k == 1) {
#ifdef ANN_VARIANT_AVX2
        if (d <= 4096) {
            out[0] = sdot_sky(d, base + rows[0] * d, query);
        } else
#endif
        out[0] = sdot_fn(d, base + rows[0] * d, 1, query, 1);
    } else {
#ifdef ANN_VARIANT_AVX2
        if (k <= 256 && d > 8 && d <= 4096 && (d & 3) == 0 && k * d < SGEMV_THREADED_MN) {
            sgemv_sky(k, d, base, rows, query, out);
        } else
#endif
        {
            for (int64_t i = 0; i < k; i++) {
                memcpy(gather + i * d, base + rows[i] * d, (size_t)d * sizeof(float));
            }
            sgemv_fn(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, k, d, 1.0f, gather, d, query, 1,
                     0.0f, out, 1);
        }
    }
    /* Clip via "replace only when strictly out of range" so NaN passes
     * through untouched, exactly like np.clip on the numpy path (fmaxf-style
     * branches would map NaN to the bound instead). */
    for (int64_t i = 0; i < k; i++) {
        float x = 1.0f - out[i];
        if (x < 0.0f) x = 0.0f;
        if (x > 2.0f) x = 2.0f;
        out[i] = x;
    }
}

static void row_distances(const graph_t *g, const float *query, const int64_t *rows,
                          int64_t k, float *gather, float *out) {
    base_row_distances(g->base, g->d, query, rows, k, gather, out);
}

/* ------------------------------------------------------------- traversal */

typedef struct {
    item_t *cand;    /* min-heap scratch */
    item_t *result;  /* max-heap scratch */
    item_t *found;   /* search output buffer (>= ef entries) */
    int64_t *fresh;  /* unvisited-neighbour ids, cap entries */
    float *gather;   /* (cap, d) rows copied for the BLAS sgemv_fn fallback only */
    float *dist;     /* cap distances */
    int64_t *stamps; /* (n,) visit epochs */
} scratch_t;

static int64_t search_layer(const graph_t *g, const float *query, const item_t *entries,
                            int64_t num_entries, int64_t ef, int layer, int64_t epoch,
                            scratch_t *s) {
    const int64_t cap = g->caps[layer];
    const int64_t *neighbors_table = g->neighbors[layer];
    const int64_t *degrees = g->degrees[layer];
    item_t *cand = s->cand, *result = s->result;
    int64_t cand_size = 0, res_size = 0;
    for (int64_t i = 0; i < num_entries; i++) {
        s->stamps[item_node(entries[i])] = epoch;
        heap_push(cand, &cand_size, ~entries[i]);
        heap_push(result, &res_size, entries[i] ^ NODE_BITS);
    }
    while (cand_size > 0) {
        item_t current = ~cand[0];
        cand_size--;
        heap_sift_down(cand, cand_size, 0, cand[cand_size]);
        if (res_size >= ef && item_dist(current) > item_dist(result[0])) break;
        int64_t node = item_node(current);
        int64_t degree = degrees[node];
        const int64_t *row = neighbors_table + node * cap;
        int64_t num_fresh = 0;
        for (int64_t j = 0; j < degree; j++) { /* branch-free visited scan */
            int64_t neighbor = row[j];
            int64_t unseen = s->stamps[neighbor] != epoch;
            s->stamps[neighbor] = epoch;
            s->fresh[num_fresh] = neighbor;
            num_fresh += unseen;
        }
        if (num_fresh == 0) continue;
        row_distances(g, query, s->fresh, num_fresh, s->gather, s->dist);
        for (int64_t j = 0; j < num_fresh; j++) {
            float nd = s->dist[j];
            item_t it = make_item(nd, s->fresh[j]);
            if (res_size < ef) {
                heap_push(cand, &cand_size, ~it);
                heap_push(result, &res_size, it ^ NODE_BITS);
            } else if (nd < item_dist(result[0])) {
                /* pushing `it` and popping the farthest would drop the top */
                heap_push(cand, &cand_size, ~it);
                heap_sift_down(result, res_size, 0, it ^ NODE_BITS);
            }
        }
    }
    for (int64_t i = 0; i < res_size; i++) s->found[i] = result[i] ^ NODE_BITS;
    return res_size;
}

static void greedy_descent(const graph_t *g, const float *query, int64_t *entry,
                           float *entry_dist, int64_t top, int64_t bottom, scratch_t *s) {
    for (int64_t layer = top; layer > bottom; layer--) {
        const int64_t cap = g->caps[layer];
        const int64_t *neighbors_table = g->neighbors[layer];
        const int64_t *degrees = g->degrees[layer];
        int changed = 1;
        while (changed) {
            changed = 0;
            int64_t degree = degrees[*entry];
            if (degree == 0) break;
            const int64_t *row = neighbors_table + *entry * cap;
            row_distances(g, query, row, degree, s->gather, s->dist);
            int64_t best = 0;
            for (int64_t j = 1; j < degree; j++) {
                if (s->dist[j] < s->dist[best]) best = j;
            }
            if (s->dist[best] < *entry_dist) {
                *entry = row[best];
                *entry_dist = s->dist[best];
                changed = 1;
            }
        }
    }
}

/* -------------------------------------------------------------- insertion */

/* Keep the m closest links of an overfull neighbour row, replicating
 * np.argsort(dists[:degree], kind="stable")[:m]. */
static void prune_row(int64_t *neighbors, float *dists, int64_t degree, int64_t m,
                      int64_t *idx_buf, int64_t *node_buf, float *dist_buf) {
    for (int64_t i = 0; i < degree; i++) idx_buf[i] = i;
    for (int64_t i = 1; i < degree; i++) { /* stable insertion sort by distance */
        int64_t key = idx_buf[i];
        float key_dist = dists[key];
        int64_t j = i - 1;
        while (j >= 0 && dists[idx_buf[j]] > key_dist) {
            idx_buf[j + 1] = idx_buf[j];
            j--;
        }
        idx_buf[j + 1] = key;
    }
    for (int64_t i = 0; i < m; i++) {
        node_buf[i] = neighbors[idx_buf[i]];
        dist_buf[i] = dists[idx_buf[i]];
    }
    memcpy(neighbors, node_buf, (size_t)m * sizeof(int64_t));
    memcpy(dists, dist_buf, (size_t)m * sizeof(float));
}

static void connect(graph_t *g, int64_t node, const item_t *selected, int64_t count,
                    int layer, int64_t m, int64_t *idx_buf, int64_t *node_buf,
                    float *dist_buf) {
    const int64_t cap = g->caps[layer];
    int64_t *neighbors_table = g->neighbors[layer];
    float *dists_table = g->dists[layer];
    int64_t *degrees = g->degrees[layer];
    for (int64_t slot = 0; slot < count; slot++) {
        neighbors_table[node * cap + slot] = item_node(selected[slot]);
        dists_table[node * cap + slot] = item_dist(selected[slot]);
    }
    degrees[node] = count;
    for (int64_t i = 0; i < count; i++) {
        int64_t neighbor = item_node(selected[i]);
        int64_t degree = degrees[neighbor];
        neighbors_table[neighbor * cap + degree] = node;
        dists_table[neighbor * cap + degree] = item_dist(selected[i]);
        degree += 1;
        if (degree > m) {
            prune_row(neighbors_table + neighbor * cap, dists_table + neighbor * cap,
                      degree, m, idx_buf, node_buf, dist_buf);
            degree = m;
        }
        degrees[neighbor] = degree;
    }
}

static void scratch_free(scratch_t *s) {
    if (!s) return;
    free(s->cand);
    free(s->result);
    free(s->found);
    free(s->fresh);
    free(s->gather);
    free(s->dist);
    free(s->stamps);
    free(s);
}

static scratch_t *scratch_alloc(int64_t n_total, int64_t ef, int64_t cap_max, int64_t d) {
    scratch_t *s = (scratch_t *)calloc(1, sizeof(scratch_t));
    if (!s) return 0;
    int64_t heap_cap = n_total + ef + 8;
    s->cand = (item_t *)malloc((size_t)heap_cap * sizeof(item_t));
    s->result = (item_t *)malloc((size_t)(ef + 2) * sizeof(item_t));
    s->found = (item_t *)malloc((size_t)(ef + 2) * sizeof(item_t));
    s->fresh = (int64_t *)malloc((size_t)cap_max * sizeof(int64_t));
    s->gather = (float *)malloc((size_t)(cap_max * d) * sizeof(float));
    s->dist = (float *)malloc((size_t)cap_max * sizeof(float));
    s->stamps = (int64_t *)calloc((size_t)n_total, sizeof(int64_t));
    if (!s->cand || !s->result || !s->found || !s->fresh || !s->gather || !s->dist ||
        !s->stamps) {
        scratch_free(s); /* the Python caller falls back and keeps running */
        return 0;
    }
    return s;
}

/* One full insert: greedy descent to the node's level, then search, select
 * and connect on every layer from there down. */
static void insert_node(graph_t *g, int64_t node, int64_t level, const float *query,
                        int64_t ef_construction, scratch_t *s, item_t *entry_points,
                        int64_t *idx_buf, int64_t *node_buf, float *dist_buf,
                        int64_t *entry, int64_t *max_level, int64_t *epoch) {
    int64_t current = *entry;
    float current_dist;
    row_distances(g, query, &current, 1, s->gather, &current_dist);
    greedy_descent(g, query, &current, &current_dist, *max_level, level, s);
    int64_t num_entry = 1;
    entry_points[0] = make_item(current_dist, current);
    int64_t top = level < *max_level ? level : *max_level;
    for (int64_t layer = top; layer >= 0; layer--) {
        *epoch += 1;
        int64_t num_found = search_layer(g, query, entry_points, num_entry, ef_construction,
                                         (int)layer, *epoch, s);
        int64_t m = layer == 0 ? g->max_degree * 2 : g->max_degree;
        int64_t num_selected = num_found < m ? num_found : m;
        /* Sorted, the found set is both the selection and (in any order)
         * the next layer's entry points. */
        sort_items(s->found, num_found);
        connect(g, node, s->found, num_selected, (int)layer, m, idx_buf, node_buf,
                dist_buf);
        memcpy(entry_points, s->found, (size_t)num_found * sizeof(item_t));
        num_entry = num_found;
    }
    if (level > *max_level) {
        *max_level = level;
        *entry = node;
    }
}

/* Build the graph of nodes [0, n_total), n_total >= 1, into zeroed tables:
 * node 0 is the first entry point and every later node is inserted with its
 * own base row as the query.  Returns 0 on success, -1 on allocation failure
 * (in which case no table was touched). */
int hnsw_build(const float *base, int64_t d, int num_layers, int64_t **neighbors,
               float **dists, int64_t **degrees, const int64_t *caps, int64_t max_degree,
               int64_t ef_construction, const int64_t *levels, int64_t n_total) {
    graph_t g = {base, d, num_layers, neighbors, dists, degrees, caps, max_degree};
    int64_t cap_max = caps[0];
    for (int l = 1; l < num_layers; l++) {
        if (caps[l] > cap_max) cap_max = caps[l];
    }
    scratch_t *s = scratch_alloc(n_total, ef_construction, cap_max, d);
    if (!s) return -1;
    item_t *entry_points = (item_t *)malloc((size_t)(ef_construction + 2) * sizeof(item_t));
    int64_t *idx_buf = (int64_t *)malloc((size_t)(cap_max + 2) * sizeof(int64_t));
    int64_t *node_buf = (int64_t *)malloc((size_t)(cap_max + 2) * sizeof(int64_t));
    float *dist_buf = (float *)malloc((size_t)(cap_max + 2) * sizeof(float));
    if (!entry_points || !idx_buf || !node_buf || !dist_buf) {
        free(entry_points);
        free(idx_buf);
        free(node_buf);
        free(dist_buf);
        scratch_free(s);
        return -1;
    }
    int64_t entry = 0;
    int64_t max_level = levels[0];
    int64_t epoch = 0;
    for (int64_t node = 1; node < n_total; node++) {
        insert_node(&g, node, levels[node], base + node * d, ef_construction, s, entry_points,
                    idx_buf, node_buf, dist_buf, &entry, &max_level, &epoch);
    }
    free(entry_points);
    free(idx_buf);
    free(node_buf);
    free(dist_buf);
    scratch_free(s);
    return 0;
}

/* Batched top-k query over a built graph; fills (num_queries, k) outputs. */
int hnsw_query(const float *base, int64_t d, int num_layers, int64_t **neighbors,
               float **dists, int64_t **degrees, const int64_t *caps, int64_t max_degree,
               int64_t n_total, const float *prepared_queries, const float *entry_dists,
               int64_t num_queries, int64_t ef, int64_t k, int64_t entry, int64_t max_level,
               int64_t *out_indices, double *out_distances) {
    graph_t g = {base, d, num_layers, neighbors, dists, degrees, caps, max_degree};
    int64_t cap_max = caps[0];
    for (int l = 1; l < num_layers; l++) {
        if (caps[l] > cap_max) cap_max = caps[l];
    }
    scratch_t *s = scratch_alloc(n_total, ef, cap_max, d);
    if (!s) return -1;
    for (int64_t row = 0; row < num_queries; row++) {
        const float *query = prepared_queries + row * d;
        int64_t current = entry;
        float current_dist = entry_dists[row];
        greedy_descent(&g, query, &current, &current_dist, max_level, 0, s);
        item_t start_item = make_item(current_dist, current);
        int64_t num_found = search_layer(&g, query, &start_item, 1, ef, 0, row + 1, s);
        if (k == 1) { /* the nearest item is the minimum: no sort */
            for (int64_t j = 1; j < num_found; j++) {
                if (s->found[j] < s->found[0]) s->found[0] = s->found[j];
            }
        } else {
            sort_items(s->found, num_found);
        }
        int64_t count = num_found < k ? num_found : k;
        for (int64_t j = 0; j < count; j++) {
            out_indices[row * k + j] = item_node(s->found[j]);
            out_distances[row * k + j] = (double)item_dist(s->found[j]);
        }
        for (int64_t j = count; j < k; j++) {
            out_indices[row * k + j] = -1;
            out_distances[row * k + j] = INFINITY;
        }
    }
    scratch_free(s);
    return 0;
}
