"""Automated attribute selection (Algorithm 1) — the EER module.

Idea (Example 1 in the paper): shuffling the values of a *significant*
attribute (e.g. ``album``) changes the entity embeddings much more than
shuffling an insignificant one (e.g. ``id``). The algorithm therefore scores
each attribute by how much the embeddings move when that column is shuffled
and keeps only the attributes whose impact is large enough.

Note on the threshold semantics: the paper's pseudo-code writes
``sim <- distance(H, H')`` and keeps the attribute when ``sim >= gamma``,
while Example 1 reports cosine *similarities* (0.91 for the insignificant
``id``, 0.79 for the significant ``album``) and γ is drawn from {0.8, 0.9}.
The only reading consistent with the example and with the stated goal
("select more significant attributes") is: keep an attribute when the mean
*similarity* between original and shuffled embeddings is **at most** γ —
equivalently, when the mean cosine distance (the significance score reported
here) is at least ``1 - γ``. That is what this module implements.

Implementation: the sampled corpus is tokenized **once per column** into CSR
token-id tables over one shared vocabulary. Because shuffling a column only
permutes that column's values, every per-attribute perturbation is a pure
integer splice — gather the shuffled column's token rows, leave the other
``p - 1`` columns' rows in place — followed by the encoder's CSR pooling
kernel. Algorithm 1 therefore serializes and tokenizes the unchanged
attributes once instead of ``p`` times. Rows whose serialized form overflows
``max_sequence_length`` (whitespace-level truncation can reshape the token
stream) fall back to the canonical serialize-and-encode path, so every
embedding stays byte-identical to the historical implementation.

The pooling passes run on the fit's executor, ``workers`` at a time, the base
first (:func:`_spliced_scores`). Every permutation is drawn before any of
them, in schema order, so the RNG stream and the scores do not depend on the
worker count. An empty sample scores every attribute 0.0 and keeps the
schema's first one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..arrays import csr_positions, unique_inverse
from ..config import RepresentationConfig
from ..data.dataset import MultiTableDataset
from ..data.serialization import serialize_columns
from ..data.table import Table
from ..embedding.hashed import HashedNGramEncoder
from ..text.tokenizer import TokenTable, word_tokens_batch
from .parallel import ParallelExecutor, default_executor
from .representation import EntityRepresenter


@dataclass
class AttributeSelectionResult:
    """Outcome of Algorithm 1.

    Attributes:
        selected: attributes kept, in schema order. Never empty — if no
            attribute clears the threshold the most significant one is kept,
            so downstream serialization always has text to work with.
        scores: per-attribute significance (mean cosine distance between
            original and column-shuffled embeddings; higher = more significant).
        gamma: the similarity threshold used.
        sample_size: how many rows were scored.
        elapsed_seconds: wall-clock cost of the selection.
    """

    selected: tuple[str, ...]
    scores: dict[str, float] = field(default_factory=dict)
    gamma: float = 0.9
    sample_size: int = 0
    elapsed_seconds: float = 0.0


class _ColumnTokenIndex:
    """Per-column CSR token-id tables over one shared vocabulary.

    Built once from a sampled table's value columns; serves every
    per-attribute shuffle of Algorithm 1 as integer gathers. Holds, per
    column: serializer-level whitespace token counts (for replay of the
    serializer's ``max_tokens`` truncation), word-token counts/offsets, and
    flat token ids into :attr:`vocabulary` (sorted unique tokens across all
    columns — shuffles permute values, so no shuffle introduces new tokens).
    """

    def __init__(self, columns: list[list[str]]) -> None:
        self.num_rows = len(columns[0]) if columns else 0
        processed = [[value.strip().lower() for value in column] for column in columns]
        self.whitespace_counts = np.array(
            [[len(value.split()) for value in column] for column in processed], dtype=np.int64
        )
        tables = [word_tokens_batch(column) for column in processed]
        self.vocabulary, flat_ids = unique_inverse(TokenTable.concat(tables).tokens)
        self.column_ids = np.split(flat_ids, np.cumsum([table.tokens.size for table in tables])[:-1])
        self.column_counts = [table.counts for table in tables]
        self.column_offsets = [table.offsets for table in tables]

    def splice(
        self, shuffled_column: int | None, permutation: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat per-row token-id stream with one column's rows permuted.

        Returns ``(token_ids, per_row_counts)``: row ``i``'s ids are the
        concatenation, in column order, of each column's row-``i`` ids —
        except the shuffled column, which contributes row ``permutation[i]``.
        Pure integer gathers; no string is touched.
        """
        n = self.num_rows
        row_counts = np.zeros(n, dtype=np.int64)
        effective_counts = []
        for j, counts in enumerate(self.column_counts):
            if j == shuffled_column:
                counts = counts[permutation]
            effective_counts.append(counts)
            row_counts += counts
        flat = np.empty(int(row_counts.sum()), dtype=np.int64)
        destinations = np.zeros(n, dtype=np.int64)
        np.cumsum(row_counts[:-1], out=destinations[1:])
        for j, counts in enumerate(effective_counts):
            starts = self.column_offsets[j][:-1]
            if j == shuffled_column:
                starts = starts[permutation]
            flat[csr_positions(destinations, counts)] = self.column_ids[j][
                csr_positions(starts, counts)
            ]
            destinations += counts
        return flat, row_counts


def _spliced_scores(
    columns: list[list[str]],
    schema: tuple[str, ...],
    base_texts: list[str],
    encoder: HashedNGramEncoder,
    config: RepresentationConfig,
    rng: np.random.Generator,
    executor: ParallelExecutor,
) -> dict[str, float]:
    """Score every attribute off the shared column token index.

    The permutations are drawn up front in schema order (the serial RNG
    stream); the base and then the spliced streams are pooled ``workers`` at a
    time, so at most ``workers + 1`` embeddings are alive (the base and one
    wave). Overflow re-encoding and the encoder counters stay on this thread.
    """
    index = _ColumnTokenIndex(columns)
    n = index.num_rows
    vectors, weights = encoder.token_vectors_and_weights(index.vocabulary.tolist())
    base_whitespace_total = index.whitespace_counts.sum(axis=0)
    max_tokens = config.max_sequence_length

    def repair(
        embeddings: np.ndarray, shuffled_column: int | None, permutation: np.ndarray | None
    ) -> np.ndarray:
        """Re-encode the rows whose serialized form overflows ``max_tokens``, in place."""
        if shuffled_column is None:
            whitespace_totals = base_whitespace_total
        else:
            whitespace_totals = (
                base_whitespace_total
                - index.whitespace_counts[shuffled_column]
                + index.whitespace_counts[shuffled_column][permutation]
            )
        overflow = np.flatnonzero(whitespace_totals > max_tokens)
        if overflow.size:
            # Whitespace-level truncation reshapes these rows' token streams;
            # re-run them through the canonical serialize → encode path.
            if shuffled_column is None:
                texts = [base_texts[i] for i in overflow]
            else:
                texts = serialize_columns(
                    [
                        [
                            column[int(permutation[i])] if j == shuffled_column else column[int(i)]
                            for i in overflow
                        ]
                        for j, column in enumerate(columns)
                    ],
                    max_tokens=max_tokens,
                )
            embeddings[overflow] = encoder.encode(texts)
        return embeddings

    jobs = [(None, None)] + [(position, rng.permutation(n)) for position in range(len(schema))]
    base_embeddings, scores = None, {}
    for start in range(0, len(jobs), executor.workers):
        batch = jobs[start : start + executor.workers]
        streams = [index.splice(column, permutation) for column, permutation in batch]
        pooled = encoder.encode_token_id_tables(streams, vectors, weights, executor)
        del streams
        for (column, permutation), embeddings in zip(batch, pooled):
            embeddings = repair(embeddings, column, permutation)
            if column is None:
                base_embeddings = embeddings
            else:
                similarity = np.einsum("ij,ij->i", base_embeddings, embeddings)
                scores[schema[column]] = float(np.mean(1.0 - similarity))
        del pooled, embeddings  # the next wave's embeddings replace these
    return scores


@default_executor
def select_attributes(
    dataset: MultiTableDataset,
    representer: EntityRepresenter,
    config: RepresentationConfig | None = None,
    *,
    executor: ParallelExecutor | None = None,
) -> AttributeSelectionResult:
    """Run Algorithm 1 over a dataset.

    Args:
        dataset: the multi-table dataset (all tables share a schema).
        representer: representer whose encoder scores the perturbations; the
            encoder is fitted on the sampled corpus if it was not fitted yet.
        config: representation configuration (γ, sample ratio, seed); falls
            back to the representer's own configuration.
        executor: pools the shuffles' embeddings ``workers`` at a time; without
            one a default executor serves the call and is closed with it. The
            scores do not depend on it.

    Returns:
        :class:`AttributeSelectionResult` with the kept attributes and scores.
    """
    config = config or representer.config
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)

    # Line 1: concatenate all tables; Line 2: sample rows.
    combined = Table.concat(dataset.table_list(), name="__combined__")
    sampled = combined.sample(config.sample_ratio, rng)
    schema = sampled.schema

    # Single-attribute schemas have nothing to select between; an empty
    # sample has nothing to score, so it keeps the schema's first attribute.
    if len(schema) == 1 or len(sampled) == 0:
        elapsed = time.perf_counter() - started
        scores = {schema[0]: 1.0} if len(schema) == 1 else dict.fromkeys(schema, 0.0)
        return AttributeSelectionResult(
            selected=schema[:1], scores=scores, gamma=config.gamma,
            sample_size=len(sampled), elapsed_seconds=elapsed,
        )

    # Line 3: serialize + fit on the sampled corpus (column-wise).
    columns = [sampled.column(attribute) for attribute in schema]
    base_texts = serialize_columns(columns, max_tokens=config.max_sequence_length)
    representer.encoder.fit(base_texts)

    # Lines 5-11: per-attribute shuffle, re-embed, score — every shuffle off
    # the shared column token index (one tokenize pass total).
    scores = _spliced_scores(
        columns, schema, base_texts, representer.encoder.inner, config, rng, executor
    )

    threshold = 1.0 - config.gamma
    selected = tuple(a for a in schema if scores[a] >= threshold)
    if not selected:
        # Degenerate case: keep the single most significant attribute so the
        # representation stage never serializes empty strings.
        best = max(schema, key=lambda a: scores[a])
        selected = (best,)

    elapsed = time.perf_counter() - started
    return AttributeSelectionResult(
        selected=selected,
        scores=scores,
        gamma=config.gamma,
        sample_size=len(sampled),
        elapsed_seconds=elapsed,
    )
