"""Hashed character-n-gram sentence encoder (Sentence-BERT substitute).

Why this design: the offline environment has no pre-trained language model,
so the encoder must be built from scratch yet behave like Sentence-BERT for
the purposes of this paper — textual variants of the same entity must land
close under cosine distance, and unrelated records far apart. The encoder
achieves this with three ingredients:

1. **Character n-gram hashing** — each token's 3–5-grams are hashed into the
   embedding space with deterministic signs (FNV-1a), making the token
   representation robust to typos, abbreviations, and reformatting.
2. **Whole-token hashing** — a separate hash of the full token preserves
   exact-token evidence, so clean matches still dominate.
3. **SIF-style IDF weighting with mean pooling** — sentence vectors are the
   IDF-weighted mean of token vectors (``fit`` learns IDF over the corpus),
   mirroring Sentence-BERT's mean pooling while down-weighting frequent
   boilerplate tokens such as "unlocked" or "free shipping".
4. **Numeric down-weighting** — tokens dominated by digits (opaque ids,
   coordinates, years, track numbers) contribute little to the pooled vector.
   This mirrors the paper's Example 1: Sentence-BERT barely reacts when an
   ``id`` value is replaced, which is precisely what lets Algorithm 1 separate
   significant from insignificant attributes.

Encoding runs on the columnar CSR token substrate: the corpus is batch
tokenized into one flat token array plus per-text offsets
(:func:`~repro.text.tokenizer.word_tokens_batch`), tokens are de-duplicated
corpus-wide by the sort-free :func:`~repro.arrays.unique_inverse`, each
*unique* token's vector and pooling weight are built once, and every text is
pooled with size-bucketed CSR-weighted segment sums — one gather + multiply +
axis-sum pass per distinct text length, one executor task per table. The
bucketed axis sums reproduce the historical sequential accumulation bit for
bit (the same summation-order property the flat merging engine relies on), so
embeddings are byte-identical to the per-text implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..arrays import unique_inverse
from ..exceptions import ConfigurationError
from ..text.hashing import signed_bucket, signed_bucket_batch, signed_ngram_buckets
from ..text.tokenizer import TokenTable, char_ngrams, word_tokens_batch
from ..text.vocab import Vocabulary
from .base import normalize_rows

if TYPE_CHECKING:
    from ..core.parallel import ParallelExecutor

#: Cap on elements of one pooled ``(texts, tokens, dim)`` block; bounds peak
#: gather memory (32M float32 elements = 128 MB, split across pool workers)
#: without changing any values (blocking is per-text, texts pool whole).
_POOL_BLOCK_ELEMENTS = 32_000_000


class HashedNGramEncoder:
    """Deterministic hashed n-gram sentence encoder.

    Args:
        dimension: embedding dimensionality (default 384, matching MiniLM).
        ngram_range: character n-gram sizes used per token.
        max_tokens: maximum number of tokens per text (paper: 64).
        token_weight: relative weight of the whole-token hash versus the
            n-gram hashes inside a token vector.
        use_idf: weight tokens by corpus IDF when :meth:`fit` has been called.
        numeric_weight_floor: minimum pooling weight multiplier for tokens
            made (mostly) of digits; 1.0 disables numeric down-weighting.
        seed: hashing seed; two encoders with the same seed agree exactly.

    Attributes:
        batch_encodes: number of batch (token-table) encode passes run —
            the smoke tier asserts the fast path is exercised.
        tokens_pooled: total token occurrences pooled by the batch path.
    """

    def __init__(
        self,
        dimension: int = 384,
        ngram_range: tuple[int, int] = (3, 5),
        max_tokens: int = 64,
        token_weight: float = 1.0,
        use_idf: bool = True,
        numeric_weight_floor: float = 0.2,
        seed: int = 0,
    ) -> None:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        if max_tokens <= 0:
            raise ConfigurationError("max_tokens must be positive")
        self.dimension = dimension
        self.ngram_range = ngram_range
        self.max_tokens = max_tokens
        self.token_weight = token_weight
        self.use_idf = use_idf
        if not 0 < numeric_weight_floor <= 1:
            raise ConfigurationError("numeric_weight_floor must be in (0, 1]")
        self.numeric_weight_floor = numeric_weight_floor
        self.seed = seed
        self._vocabulary: Vocabulary | None = None
        self._token_cache: dict[str, np.ndarray] = {}
        self.batch_encodes = 0
        self.tokens_pooled = 0

    # ------------------------------------------------------------------- fit
    def fit(self, texts: Sequence[str]) -> "HashedNGramEncoder":
        """Learn corpus IDF weights used for SIF-style pooling."""
        if self.use_idf:
            self._vocabulary = Vocabulary.from_token_table(word_tokens_batch(texts))
        return self

    def fit_token_ids(self, tokens, token_ids, counts) -> "HashedNGramEncoder":
        """:meth:`fit` from a corpus mapped onto its sorted distinct ``tokens`` (same IDF)."""
        if self.use_idf:
            self._vocabulary = Vocabulary.from_token_ids(tokens, token_ids, counts)
        return self

    # ----------------------------------------------------------- token level
    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        vector = np.zeros(self.dimension, dtype=np.float32)
        grams = char_ngrams(token, *self.ngram_range)
        for gram in grams:
            index, sign = signed_bucket(gram, self.dimension, self.seed)
            vector[index] += sign
        index, sign = signed_bucket(token, self.dimension, self.seed + 7)
        vector[index] += sign * self.token_weight * max(1, len(grams)) ** 0.5
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        self._token_cache[token] = vector
        return vector

    def _numeric_multiplier(self, token: str) -> float:
        """Down-weight digit-heavy tokens (ids, coordinates, years).

        Pre-trained sentence encoders map opaque numeric strings onto nearly
        interchangeable subword embeddings, so swapping them barely moves the
        pooled vector (the paper's Example 1). The multiplier reproduces that
        behaviour: a token that is all digits gets the configured floor, a
        half-numeric token like ``64gb`` sits halfway, plain words get 1.0.
        """
        if self.numeric_weight_floor >= 1.0 or not token:
            return 1.0
        digit_fraction = sum(c.isdigit() for c in token) / len(token)
        return max(self.numeric_weight_floor, 1.0 - digit_fraction)

    def _token_weight_for(self, token: str) -> float:
        multiplier = self._numeric_multiplier(token)
        if self._vocabulary is None or not self.use_idf:
            return multiplier
        return multiplier * self._vocabulary.idf(token)

    def _build_token_vectors(self, tokens: list[str]) -> np.ndarray:
        """Build (and cache) many tokens' vectors with batched FNV hashing.

        One :func:`~repro.text.hashing.signed_ngram_buckets` pass enumerates
        *and* hashes every char n-gram of every token straight off the
        boundary-padded byte matrix (no gram strings, no per-token Python
        loop — hashes are bit-identical to the scalar
        :func:`~repro.text.hashing.signed_bucket` of each
        :func:`~repro.text.tokenizer.char_ngrams` gram); the per-token ±1
        scatter is a single ``np.bincount`` (float adds of ±1 are exact
        integers, so any accumulation order reproduces the scalar loop bit
        for bit), followed by the whole-token hash contribution and the
        scalar per-row normalization of :meth:`_token_vector`.
        """
        n_min, n_max = self.ngram_range
        buckets, signs, gram_counts = signed_ngram_buckets(
            [f"<{token}>" for token in tokens], n_min, n_max, self.dimension, self.seed
        )
        token_rows = np.repeat(np.arange(len(tokens), dtype=np.int64), gram_counts)
        accumulated = np.bincount(
            token_rows * np.int64(self.dimension) + buckets,
            weights=signs,
            minlength=len(tokens) * self.dimension,
        )
        vectors = accumulated.reshape(len(tokens), self.dimension).astype(np.float32)
        token_buckets, token_signs = signed_bucket_batch(tokens, self.dimension, self.seed + 7)
        contributions = [
            sign * self.token_weight * max(1, int(count)) ** 0.5
            for sign, count in zip(token_signs.tolist(), gram_counts.tolist())
        ]
        vectors[np.arange(len(tokens)), token_buckets] += np.asarray(contributions)
        for j, token in enumerate(tokens):
            vector = vectors[j]
            norm = float(np.linalg.norm(vector))
            if norm > 0:
                vector /= norm
            self._token_cache[token] = vector
        return vectors

    def token_vectors_and_weights(self, tokens: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Per-token vectors and pooling weights for a fixed token id-space.

        Row ``j`` of the returned ``(len(tokens), dimension)`` matrix is
        ``tokens[j]``'s (cached) unit vector; entry ``j`` of the weight array
        is its pooling weight under the currently fitted IDF statistics.
        Uncached tokens are built in one batched-FNV pass. Callers that
        encode many token-id streams over one vocabulary (Algorithm 1's
        per-attribute shuffles) build these arrays once and feed them to
        :meth:`encode_token_ids`.
        """
        vectors = np.empty((len(tokens), self.dimension), dtype=np.float32)
        missing: list[str] = []
        missing_rows: list[int] = []
        for j, token in enumerate(tokens):
            cached = self._token_cache.get(token)
            if cached is not None:
                vectors[j] = cached
            else:
                missing.append(token)
                missing_rows.append(j)
        if missing:
            vectors[np.asarray(missing_rows, dtype=np.int64)] = self._build_token_vectors(missing)
        weights = np.array([self._token_weight_for(token) for token in tokens], dtype=np.float32)
        return vectors, weights

    # --------------------------------------------------------------- encoding
    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Encode texts into unit-norm vectors via weighted mean pooling.

        Returns a ``(len(texts), dimension)`` float32 matrix; empty texts get
        zero rows.
        """
        return self.encode_token_table(word_tokens_batch(texts))

    def encode_token_table(self, table: TokenTable) -> np.ndarray:
        """Encode a pre-tokenized corpus (flat CSR token table).

        De-duplicates tokens corpus-wide, builds each unique token's vector
        and weight once, then pools every text with the bucketed CSR segment
        sum. Byte-identical to encoding the originating texts.
        """
        unique, inverse = unique_inverse(table.tokens)
        vectors, weights = self.token_vectors_and_weights(unique.tolist())
        return self.encode_token_ids(inverse, table.counts, vectors, weights)

    def encode_token_ids(
        self,
        token_ids: np.ndarray,
        counts: np.ndarray,
        vectors: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Encode texts given as CSR token-id streams over a fixed vocabulary.

        Args:
            token_ids: flat int64 token ids (rows into ``vectors``), all
                texts concatenated in order; **untruncated** — the encoder
                applies its own ``max_tokens`` cap here.
            counts: per-text token counts (CSR row lengths).
            vectors: ``(vocab, dimension)`` float32 token vector matrix.
            weights: per-vocab-entry float32 pooling weights.

        Returns:
            ``(len(counts), dimension)`` unit-norm float32 matrix,
            byte-identical to the per-text reference pooling.
        """
        return self.encode_token_id_tables([(token_ids, counts)], vectors, weights)[0]

    def encode_token_id_tables(
        self, tables, vectors: np.ndarray, weights: np.ndarray, executor: ParallelExecutor | None = None
    ) -> list[np.ndarray]:
        """:meth:`encode_token_ids` over many ``(token_ids, counts)`` tables, one task each.

        One flat ``executor.map`` (inline when None or serial); truncation and
        the counters stay on the calling thread. Each task's gather blocks are
        capped at ``_POOL_BLOCK_ELEMENTS // executor.workers``: same bytes,
        and no more gather memory at once than one serial block.
        """
        jobs = []
        for token_ids, counts in tables:
            token_ids = np.asarray(token_ids, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            if token_ids.size and (counts > self.max_tokens).any():
                offsets = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                positions = np.arange(token_ids.size, dtype=np.int64) - np.repeat(
                    offsets[:-1], counts
                )
                token_ids = token_ids[positions < self.max_tokens]
            jobs.append((token_ids, np.minimum(counts, self.max_tokens)))
            self.batch_encodes += 1
            self.tokens_pooled += int(token_ids.size)
        run, workers = (map, 1) if executor is None else (executor.map, executor.workers)
        block = _POOL_BLOCK_ELEMENTS // workers

        def pool(job: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
            return normalize_rows(self._pool_token_ids(*job, vectors, weights, block))

        return list(run(pool, jobs))

    def _pool_token_ids(
        self,
        token_ids: np.ndarray,
        counts: np.ndarray,
        vectors: np.ndarray,
        weights: np.ndarray,
        block_elements: int,
    ) -> np.ndarray:
        """Weighted-mean pooling of CSR token-id streams, size-bucketed.

        Texts are grouped by token count ``s``; each bucket gathers its ids
        into a ``(t, s)`` block and pools with one ``(t, s, d)`` weighted
        axis-1 sum. Axis-1 sums over the non-contiguous middle axis
        accumulate sequentially, reproducing the historical per-token
        ``pooled += weight * vector`` loop bit for bit; per-text weight
        totals likewise match the 1-d pairwise ``weights.sum()``. Buckets are
        further split so no block exceeds ``block_elements`` elements
        (value-neutral: blocking is per-text).
        """
        matrix = np.zeros((len(counts), self.dimension), dtype=np.float32)
        if token_ids.size == 0 or len(counts) == 0:
            return matrix
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        occurrence_weights = weights[token_ids]
        for size in np.unique(counts):
            size = int(size)
            if size == 0:
                continue
            bucket_rows = np.flatnonzero(counts == size)
            block = max(1, block_elements // (size * self.dimension))
            for start in range(0, len(bucket_rows), block):
                rows = bucket_rows[start : start + block]
                gather = offsets[rows][:, None] + np.arange(size, dtype=np.int64)
                ids = token_ids[gather]
                block_weights = occurrence_weights[gather]
                weighted = vectors[ids]  # fresh (t, s, d) gather, safe to scale in place
                weighted *= block_weights[:, :, None]
                pooled = weighted.sum(axis=1)
                totals = block_weights.sum(axis=1)
                degenerate = totals <= 0
                if degenerate.any():
                    # Historical fallback: all-zero weights pool uniformly.
                    pooled[degenerate] = vectors[ids[degenerate]].sum(axis=1)
                    totals[degenerate] = np.float32(size)
                matrix[rows] = pooled / totals[:, None]
        return matrix
