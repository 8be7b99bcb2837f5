"""Property leg of the sort-free token dedup (``repro.arrays.unique_inverse``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import unique_inverse
from repro.text import Vocabulary, word_tokens_batch

#: Short strings over a small alphabet, so streams repeat and share prefixes;
#: the alphabet spans digits, ASCII, accented, CJK and astral-plane characters.
token = st.text(alphabet="ab01.é東\U0001F600", max_size=4)


@given(values=st.lists(token, max_size=60))
@settings(max_examples=150, deadline=None)
def test_unique_inverse_equals_np_unique(values):
    tokens = np.empty(len(values), dtype=object)
    tokens[:] = values
    unique, inverse = unique_inverse(tokens)
    want_unique, want_inverse = np.unique(tokens, return_inverse=True)
    assert unique.tolist() == want_unique.tolist()
    assert np.array_equal(inverse, want_inverse) and inverse.dtype == np.int64


@given(corpus=st.lists(st.lists(token, max_size=6).map(" ".join), max_size=12))
@settings(max_examples=100, deadline=None)
def test_vocabulary_from_token_table_equals_build(corpus):
    built = Vocabulary.build(corpus)
    from_table = Vocabulary.from_token_table(word_tokens_batch(corpus))
    assert from_table.token_to_index == built.token_to_index
    assert from_table.document_frequency == built.document_frequency
    assert from_table.num_documents == built.num_documents
