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

import sys
import threading
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.langid import scripts
from repro.langid.detector import ScriptDetector
from repro.langid.languages import LANGUAGES
from repro.langid.ngram import NGramClassifier, default_english_model, extract_ngrams
from repro.langid.scripts import SCRIPT_CODES, script_histogram, script_shares, textual_length

from langid_oracle import (
    extract_ngrams_naive,
    score_naive,
    script_histogram_naive,
    share_naive,
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


#: Characters no text before them has memoised: an astral emoji, a CJK
#: Extension B ideograph, no-break space, ideographic space, line separator.
UNSEEN = "\U0001FAE0\U00020001\u00a0\u3000\u2028"
#: Both ends of every classified range (so every script of every
#: ``LANGUAGES`` target), the Urdu and Persian specific characters, the
#: unseen characters and some ASCII.
kernel_alphabet = st.sampled_from(sorted(
    {chr(codepoint) for start, end, _ in scripts._RANGES for codepoint in (start, end)}
    | {char for language in LANGUAGES.values() for char in language.specific_chars}
    | set(UNSEEN) | set("aZ09 .-\t")))
kernel_text = st.text(alphabet=kernel_alphabet, max_size=80)
language_codes = st.sampled_from(sorted(LANGUAGES))


@contextmanager
def fresh_memo(max_size: int | None = None):
    """Run with an empty script memo (optionally bounded), restored afterwards."""
    saved = (scripts._SCRIPT_CACHE, scripts._CODE_TABLE,
             scripts._TEXTUAL_CODE_TABLE, scripts._SCRIPT_CACHE_MAX)
    if max_size is not None:
        scripts._SCRIPT_CACHE_MAX = max_size
    scripts._reset_cache()
    try:
        yield
    finally:
        (scripts._SCRIPT_CACHE, scripts._CODE_TABLE,
         scripts._TEXTUAL_CODE_TABLE, scripts._SCRIPT_CACHE_MAX) = saved


def assert_kernel_matches_oracle(text: str, code: str, latin_is_english: bool) -> None:
    language = LANGUAGES[code]
    detector = ScriptDetector(language, latin_is_english=latin_is_english)
    assert detector.share(text) == share_naive(language, text,
                                               latin_is_english=latin_is_english)
    assert script_histogram(text) == script_histogram_naive(text)
    assert (script_histogram(text, textual_only=True)
            == script_histogram_naive(text, textual_only=True))
    assert textual_length(text) == textual_length_naive(text)


def assert_memo_in_lockstep(*texts: str) -> None:
    """The memo and both translate tables hold the same characters, bounded.

    ``texts`` are the texts classified since the memo was last emptied.
    """
    memo = scripts._SCRIPT_CACHE
    codepoints = {ord(char) for char in memo}
    assert codepoints == set(scripts._CODE_TABLE) == set(scripts._TEXTUAL_CODE_TABLE)
    assert set(range(128)) <= codepoints
    for char, script in memo.items():
        assert scripts._CODE_TABLE[ord(char)] == SCRIPT_CODES[script]
        assert scripts._TEXTUAL_CODE_TABLE[ord(char)] == (
            SCRIPT_CODES[script] if script.is_textual() else None)
    # A fill never grows the memo past its bound, except by one text's
    # own distinct characters right after a reset.
    widest = max(len(set(text)) for text in texts)
    assert len(memo) <= max(scripts._SCRIPT_CACHE_MAX, 128 + widest)


class TestTranslateKernel:
    """``share``/``script_histogram``/``textual_length`` against the oracle.

    The kernel classifies through translate tables kept in lockstep with the
    script memo; these tests start from an empty memo, so every non-ASCII
    character is unseen when the kernel first meets it.
    """

    @settings(max_examples=150)
    @given(kernel_text, language_codes, st.booleans())
    def test_fresh_memo_matches_oracle(self, text: str, code: str,
                                       latin_is_english: bool) -> None:
        with fresh_memo():
            assert_kernel_matches_oracle(text, code, latin_is_english)
            assert_memo_in_lockstep(text)

    @settings(max_examples=100)
    @given(st.lists(kernel_text, min_size=1, max_size=6), language_codes)
    def test_memo_cleared_between_texts_matches_oracle(self, texts: list[str],
                                                       code: str) -> None:
        # 12 entries beyond ASCII: almost every text forces a reset.
        with fresh_memo(max_size=140):
            for seen, text in enumerate(texts, 1):
                assert_kernel_matches_oracle(text, code, True)
                assert_memo_in_lockstep(*texts[:seen])

    def test_unseen_characters(self) -> None:
        for char in UNSEEN:
            for text in (char, f"a{char}b", f"ঀ{char}ไ"):
                with fresh_memo():
                    assert_kernel_matches_oracle(text, "bn", True)
                    assert_memo_in_lockstep(text)

    def test_every_language_including_specific_characters(self) -> None:
        texts = [
            "اردو متن کے ساتھ with some English",  # Urdu specific characters
            "النص العربي مع some English",          # shared script, none of them
            "فارسی پچ",                              # Persian specific characters
            "हिन्दी বাংলা ไทย 日本語 ひらがな カタカナ 한국어 русский ελληνικά עברית",
            "தமிழ் తెలుగు ಕನ್ನಡ മലയാളം ગુજરાતી ਪੰਜਾਬੀ සිංහල ქართული አማርኛ မြန်မာ",
            "中文 ㄅㄆ" + UNSEEN,
        ]
        for code in sorted(LANGUAGES):
            for text in texts:
                with fresh_memo():
                    assert_kernel_matches_oracle(text, code, True)
                    assert_kernel_matches_oracle(text, code, False)
        urdu = ScriptDetector(LANGUAGES["ur"])
        assert urdu.share(texts[0]).native > 0
        assert urdu.share(texts[1]).native == 0

    def test_threads_sharing_a_resetting_memo_count_exactly(self) -> None:
        # Four threads classify overlapping texts through a memo so small
        # that almost every fill resets it; a lookup that met a half-reset
        # table would count ASCII characters as codes and break parity.
        texts = ["স্বাগতম welcome ১২৩", "ไทยกข เมนู menu", "汉字テキスト 😀 text",
                 "اردو متن کے ساتھ", "русский ελληνικά עברית", "\U00020001\u3000abc\u2028",
                 "sign in, 24/7 support", "Menu Search Home"]
        expected = [(script_histogram_naive(text), textual_length_naive(text),
                     share_naive(LANGUAGES["bn"], text)) for text in texts]
        detector = ScriptDetector(LANGUAGES["bn"])
        failures: list[str] = []

        def work(offset: int) -> None:
            for step in range(1000):
                index = (offset + step) % len(texts)
                text = texts[index]
                got = (script_histogram(text), textual_length(text), detector.share(text))
                if got != expected[index]:
                    failures.append(text)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fresh_memo(max_size=140):
                threads = [threading.Thread(target=work, args=(offset,), daemon=True)
                           for offset in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_memo_overflow_keeps_counting(self) -> None:
        # Every distinct character of the text itself exceeds the bound.
        text = "".join(chr(codepoint) for codepoint in range(0x4E00, 0x4E40)) + "ab"
        with fresh_memo(max_size=140):
            script_histogram("ঀঁআকখ")
            assert_kernel_matches_oracle(text, "zh", True)
            assert_memo_in_lockstep("ঀঁআকখ", text)


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
