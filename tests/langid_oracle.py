"""Reference implementations of the langid hot paths, for tests and benchmarks.

The product functions classify a whole text with one ``str.translate``
over a memoised codepoint→script-code table, memoise per-token n-gram dicts
and score from a precomputed log-probability table.  These are the plain
versions they replaced: one range classification per character, one
``Counter`` increment per gram, one smoothed probability per gram.  ``tests/test_langid_hot_paths.py`` pins the
two equal on any input, and ``benchmarks/bench_hot_paths.py`` times one
against the other.  Test-only; never imported from ``src/``.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.langid.detector import LanguageShare
from repro.langid.languages import Language
from repro.langid.ngram import NGramModel
from repro.langid.scripts import Script, _classify


def script_histogram_naive(text: str, *, textual_only: bool = False) -> Counter[Script]:
    """Reference for :func:`repro.langid.scripts.script_histogram`.

    Deliberately bypasses the memo, so the parity suite catches a corrupted
    cache entry, not just a wrong counting pass.
    """
    counts: Counter[Script] = Counter()
    for char in text:
        script = _classify(char)
        if textual_only and not script.is_textual():
            continue
        counts[script] += 1
    return counts


def textual_length_naive(text: str) -> int:
    """Reference for :func:`repro.langid.scripts.textual_length` (memo bypassed)."""
    return sum(1 for char in text if _classify(char).is_textual())


def share_naive(language: Language, text: str, *,
                latin_is_english: bool = True) -> LanguageShare:
    """Reference for :meth:`repro.langid.detector.ScriptDetector.share`.

    Counts through :func:`script_histogram_naive` and tests the
    language-specific characters one by one.
    """
    counts = script_histogram_naive(text, textual_only=True)
    total = sum(counts.values())
    if total == 0:
        return LanguageShare(0.0, 0.0, 0.0, 0)
    native_chars = sum(counts[script] for script in set(language.scripts))
    if language.specific_chars and not any(char in language.specific_chars for char in text):
        native_chars = 0
    english_chars = counts[Script.LATIN] if latin_is_english else 0
    return LanguageShare(
        native=native_chars / total,
        english=english_chars / total,
        other=max(total - native_chars - english_chars, 0) / total,
        textual_chars=total,
    )


def extract_ngrams_naive(text: str, n_values: tuple[int, ...] = (1, 2, 3)) -> Counter[str]:
    """Reference for :func:`repro.langid.ngram.extract_ngrams` (per-gram Counter)."""
    grams: Counter[str] = Counter()
    for token in text.lower().split():
        padded = f"_{token}_"
        for n in n_values:
            if len(padded) < n:
                continue
            for i in range(len(padded) - n + 1):
                grams[padded[i:i + n]] += 1
    return grams


def score_naive(model: NGramModel, text: str) -> float:
    """Reference for :meth:`repro.langid.ngram.NGramModel.score` (no table).

    Each gram's add-one smoothed log-probability is derived from the raw
    counts, with the same expression the model's table is built from.
    """
    grams = extract_ngrams_naive(text, model.n_values)
    if not grams:
        return float("-inf")
    denominator = model.total + max(len(model.counts), 1)
    total = sum(grams.values())
    log_likelihood = sum(count * math.log((model.counts.get(gram, 0) + 1) / denominator)
                         for gram, count in grams.items())
    return log_likelihood / total
