"""Old-vs-new equivalence for the batch tokenizer and CSR token tables."""

import numpy as np
import pytest

from repro.text.tokenizer import word_tokens, word_tokens_batch
from repro.text.vocab import Vocabulary

TRICKY_TEXTS = [
    "",
    "   ",
    "Hello World",
    "  spaced\tout\nacross  lines ",
    "Café déjà-vu 3.14 naïve",
    "İstanbul ΣΟΦΟΣ ΑΣ",  # dotted-I and final-sigma lowercasing
    "token\nwith\nnewlines",  # embedded batch separators
    "1234 id42 ### --- 2.5kg",
    "ＦＵＬＬＷＩＤＴＨ １２３",  # NFKD compatibility forms
    "ab" * 40,
    "x",
]


def _random_corpus(seed: int, size: int) -> list[str]:
    rng = np.random.default_rng(seed)
    words = ["apple", "banana", "Cherry", "42", "2020", "id7", "Déjà", "naïve", "3.5", "###"]
    corpus = []
    for _ in range(size):
        count = int(rng.integers(0, 12))
        corpus.append(" ".join(rng.choice(words, size=count).tolist()))
    return corpus


@pytest.mark.parametrize("texts", [TRICKY_TEXTS, _random_corpus(0, 200), []])
def test_word_tokens_batch_matches_per_string(texts):
    table = word_tokens_batch(texts)
    assert len(table) == len(texts)
    for i, text in enumerate(texts):
        assert table.row(i) == word_tokens(text)
    assert table.offsets[0] == 0
    assert table.offsets[-1] == table.tokens.size


def test_token_table_counts_and_rows():
    lists = [["a", "b"], [], ["c"]]
    table = word_tokens_batch([" ".join(row) for row in lists])
    assert table.counts.tolist() == [2, 0, 1]
    assert [table.row(i) for i in range(3)] == lists
    empty = word_tokens_batch([])
    assert len(empty) == 0 and empty.tokens.size == 0


def test_vocabulary_from_token_table_matches_build():
    for corpus in (TRICKY_TEXTS, _random_corpus(2, 150), ["", ""]):
        built = Vocabulary.build(corpus)
        from_table = Vocabulary.from_token_table(word_tokens_batch(corpus))
        assert built.token_to_index == from_table.token_to_index
        assert built.document_frequency == from_table.document_frequency
        assert built.num_documents == from_table.num_documents


def test_vocabulary_from_token_table_min_df():
    corpus = ["a b", "a c", "a"]
    built = Vocabulary.build(corpus, min_df=2)
    from_table = Vocabulary.from_token_table(word_tokens_batch(corpus), min_df=2)
    assert built.token_to_index == from_table.token_to_index == {"a": 0}
