"""The sort-free token dedup must equal ``np.unique(tokens, return_inverse=True)``.

Stages S and R map every corpus onto its sorted distinct tokens through
:func:`repro.arrays.unique_inverse`; the vocabulary built from that mapping
must equal the per-text-set :meth:`Vocabulary.build`.
"""

import numpy as np
import pytest

from repro.arrays import unique_inverse
from repro.text import Vocabulary, word_tokens_batch


def _tokens(values) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = list(values)
    return array


CASES = {
    "empty": [],
    "one": ["alpha"],
    "all-equal": ["x"] * 7,
    "prefixes": ["abc", "a", "ab", "abc", "a", "", "ab"],
    "digits-decimals": ["10", "9", "2.5", "2.50", "0", "100", "9", "3.5", "10"],
    "accented": ["café", "cafe", "éclair", "zebra", "café", "Ångström"],
    "cjk": ["東京", "京都", "大阪", "東京", "tokyo"],
    "astral": ["\U0001F600", "\U00020000", "￿", "\U0001F600", "a"],
}


@pytest.mark.parametrize("values", list(CASES.values()), ids=list(CASES))
def test_unique_inverse_equals_np_unique(values):
    tokens = _tokens(values)
    unique, inverse = unique_inverse(tokens)
    want_unique, want_inverse = np.unique(tokens, return_inverse=True)
    assert unique.dtype == object and unique.tolist() == want_unique.tolist()
    assert inverse.dtype == np.int64
    assert np.array_equal(inverse, want_inverse)
    assert unique[inverse].tolist() == list(values)


CORPORA = {
    "empty": [],
    "blank-texts": ["", "   ", ""],
    "one": ["alpha"],
    "all-equal": ["x x x", "x", "x x"],
    "prefixes": ["a ab abc", "abc", "ab a", "abcd a"],
    "digits-decimals": ["10 9 2.5", "2.50 0 100", "9 3.5 10", "v1.2.3 64gb"],
    "accented-cjk-astral": ["Café déjà vu", "cafe deja", "東京 tokyo", "\U0001F600 smile x"],
}


@pytest.mark.parametrize("min_df", [1, 2])
@pytest.mark.parametrize("corpus", list(CORPORA.values()), ids=list(CORPORA))
def test_vocabulary_from_token_table_equals_build(corpus, min_df):
    built = Vocabulary.build(corpus, min_df=min_df)
    from_table = Vocabulary.from_token_table(word_tokens_batch(corpus), min_df=min_df)
    assert from_table.token_to_index == built.token_to_index
    assert from_table.document_frequency == built.document_frequency
    assert from_table.num_documents == built.num_documents
