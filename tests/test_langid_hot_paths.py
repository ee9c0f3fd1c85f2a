"""Parity suite pinning the langid fast paths to their naive references.

The fast implementations (memoised codepoint→script lookup, per-token gram
memo, precomputed log-probability tables) must be indistinguishable from the
naive per-character/per-gram references on *any* input — including the edge
cases the optimisations are most likely to get wrong: empty and
whitespace-only text, tokens shorter than the n-gram order, non-BMP
codepoints (emoji, supplementary-plane CJK) and mixed-script tokens.
N-gram scores are pinned with exact float equality: the fast path evaluates
the same expressions in the same summation order by construction.  The
references live in ``tests/langid_oracle.py``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.langid.ngram import NGramClassifier, default_english_model, extract_ngrams
from repro.langid.scripts import script_histogram, script_shares, textual_length

from langid_oracle import (
    extract_ngrams_naive,
    score_naive,
    script_histogram_naive,
    textual_length_naive,
)

any_text = st.text(max_size=200)
# Mixed-script soup: Latin, Bengali, Thai, Han (BMP + supplementary plane),
# emoji, digits, punctuation and whitespace in one alphabet.
mixed_alphabet = st.sampled_from(
    "abcXYZ ঀঁআকখ ไทยกข 汉字\U00020000\U0002A700 😀🚀🇧🇩 012.,!_-\t\n️‍")
mixed_text = st.text(alphabet=mixed_alphabet, max_size=120)
n_value_sets = st.sampled_from([(1,), (2,), (3,), (1, 2), (1, 2, 3), (2, 3), (5,)])

EDGE_CASES = [
    "",                        # empty
    "   \t\n  ",               # whitespace-only
    "a",                       # token shorter than higher n
    "ab cd",                   # tokens shorter than padded trigram+2
    "😀",                      # non-BMP emoji, single
    "😀🚀 🇧🇩",               # emoji sequences incl. regional indicators
    "\U00020000\U0002A700",    # supplementary-plane CJK (Extension B / C)
    "হেলloた汉",               # mixed-script single token
    "abcডেফ 123ไทย",          # mixed-script tokens with digits
    "▶️ play",                 # symbol + variation selector
    "_",                       # pad character appearing in input
    "word " * 40,              # repetition (exercises the memo hit path)
]


class TestScriptParity:
    @given(any_text)
    def test_histogram_matches_naive_on_any_text(self, text: str) -> None:
        assert script_histogram(text) == script_histogram_naive(text)

    @given(any_text)
    def test_textual_histogram_matches_naive(self, text: str) -> None:
        assert (script_histogram(text, textual_only=True)
                == script_histogram_naive(text, textual_only=True))

    @given(mixed_text)
    def test_histogram_matches_naive_on_mixed_scripts(self, text: str) -> None:
        assert script_histogram(text) == script_histogram_naive(text)
        assert (script_histogram(text, textual_only=True)
                == script_histogram_naive(text, textual_only=True))

    @given(any_text)
    def test_textual_length_matches_naive(self, text: str) -> None:
        assert textual_length(text) == textual_length_naive(text)

    def test_edge_cases(self) -> None:
        for text in EDGE_CASES:
            assert script_histogram(text) == script_histogram_naive(text), repr(text)
            assert (script_histogram(text, textual_only=True)
                    == script_histogram_naive(text, textual_only=True)), repr(text)
            assert textual_length(text) == textual_length_naive(text), repr(text)

    def test_shares_derive_from_the_fast_histogram(self) -> None:
        text = "হেলloた汉 😀 abc"
        naive = script_histogram_naive(text, textual_only=True)
        total = sum(naive.values())
        assert script_shares(text) == {script: count / total
                                       for script, count in naive.items()}


class TestNgramParity:
    @given(any_text, n_value_sets)
    def test_extract_matches_naive(self, text: str, n_values: tuple[int, ...]) -> None:
        fast = extract_ngrams(text, n_values)
        naive = extract_ngrams_naive(text, n_values)
        assert fast == naive
        # Insertion order must match too: scoring iterates the counter, and
        # float sums are only reproducible when the term order is identical.
        assert list(fast) == list(naive)

    @given(mixed_text)
    def test_extract_matches_naive_on_mixed_scripts(self, text: str) -> None:
        fast, naive = extract_ngrams(text), extract_ngrams_naive(text)
        assert fast == naive and list(fast) == list(naive)

    def test_edge_cases(self) -> None:
        for text in EDGE_CASES:
            for n_values in [(1,), (1, 2, 3), (5,), (8,)]:
                fast = extract_ngrams(text, n_values)
                naive = extract_ngrams_naive(text, n_values)
                assert fast == naive, (text, n_values)
                assert list(fast) == list(naive), (text, n_values)

    def test_tokens_shorter_than_n_yield_nothing(self) -> None:
        # "ab" pads to "_ab_" (length 4): no 5-grams exist.
        assert extract_ngrams("ab", n_values=(5,)) == extract_ngrams_naive("ab", (5,))
        assert not extract_ngrams("ab", n_values=(5,))

    def test_memo_results_are_not_aliased(self) -> None:
        first = extract_ngrams("hello", (1, 2))
        first["_h"] += 100
        assert extract_ngrams("hello", (1, 2)) == extract_ngrams_naive("hello", (1, 2))


class TestModelScoreParity:
    @settings(max_examples=60)
    @given(mixed_text)
    def test_score_matches_naive_exactly(self, text: str) -> None:
        model = default_english_model()
        assert model.score(text) == score_naive(model, text)

    @given(any_text)
    def test_score_matches_naive_on_any_text(self, text: str) -> None:
        model = default_english_model()
        assert model.score(text) == score_naive(model, text)

    def test_update_invalidates_the_log_table(self) -> None:
        model = default_english_model()
        before = model.score("hello world")
        model.update("völlig neue wörter zum lernen")
        after = model.score("hello world")
        assert after == score_naive(model, "hello world")
        assert after != before

    def test_empty_and_whitespace_score_minus_inf(self) -> None:
        model = default_english_model()
        for text in ("", "   \t\n"):
            assert model.score(text) == float("-inf") == score_naive(model, text)

    def test_pickled_model_scores_identically(self) -> None:
        import pickle

        model = default_english_model()
        model.score("warm the table")  # table built, must not leak into pickle
        clone = pickle.loads(pickle.dumps(model))
        assert clone.score("hello world") == model.score("hello world")

    def test_classifier_scores_match_per_model_scoring(self) -> None:
        classifier = NGramClassifier.train({
            "en": ["the quick brown fox", "sign in register"],
            "de": ["der schnelle braune fuchs", "anmelden registrieren"],
        })
        text = "the schnelle fox"
        scored = classifier.scores(text)
        assert scored["en"] == classifier._models["en"].score(text)
        assert scored["de"] == score_naive(classifier._models["de"], text)
        best, margin = classifier.confidence(text)
        assert best == "en"
        assert margin == scored["en"] - scored["de"]
