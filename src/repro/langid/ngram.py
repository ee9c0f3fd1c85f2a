"""Character n-gram language models.

Script ranges cannot distinguish languages that share the Latin alphabet
(English vs. romanised Hindi vs. French boilerplate), nor can they separate
Japanese from Chinese when a snippet happens to contain only Han characters.
For those cases the library provides a small character n-gram classifier in
the style of Cavnar & Trenkle's rank-order profiles, trained on the built-in
lexicons of :mod:`repro.webgen.lexicon`.

The classifier is deliberately compact: the paper relies primarily on script
detection, and the n-gram model is only consulted for Latin-script
disambiguation and for the ablation benchmark comparing detection approaches.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping


# Per-token gram memo.  UI/accessibility text repeats a small vocabulary
# ("home", "menu", brand names), so the padded-slice walk for a given
# (token, n_values) pair is computed once and its gram dict re-used.  The
# cached dicts are treated as immutable by all readers.  Bounded so
# adversarial input (e.g. property-test fuzzing) cannot grow it without
# limit; clearing wholesale keeps the common case branch-free.
_TOKEN_CACHE: dict[tuple[str, tuple[int, ...]], dict[str, int]] = {}
_TOKEN_CACHE_MAX = 65536


def _token_grams(token: str, n_values: tuple[int, ...]) -> dict[str, int]:
    """Gram counts of one whitespace token (memoised; insertion order is the
    naive first-encounter order, which downstream float sums rely on)."""
    key = (token, n_values)
    cached = _TOKEN_CACHE.get(key)
    if cached is not None:
        return cached
    grams: dict[str, int] = {}
    padded = f"_{token}_"
    length = len(padded)
    for n in n_values:
        if length < n:
            continue
        for i in range(length - n + 1):
            gram = padded[i:i + n]
            grams[gram] = grams.get(gram, 0) + 1
    if len(_TOKEN_CACHE) >= _TOKEN_CACHE_MAX:
        _TOKEN_CACHE.clear()
    _TOKEN_CACHE[key] = grams
    return grams


def extract_ngrams(text: str, n_values: tuple[int, ...] = (1, 2, 3)) -> Counter[str]:
    """Extract padded character n-grams from ``text``.

    The text is lowercased and tokenised on whitespace; each token is padded
    with underscores so that word-initial and word-final n-grams are distinct
    from word-internal ones, which substantially improves short-string
    classification.

    Fast path: per-token gram dicts are accumulated locally and memoised
    instead of incrementing a ``Counter`` once per gram.  Gram insertion
    order matches the per-gram reference (``tests/langid_oracle.py``)
    exactly (token by token, first encounter), so scoring sums that iterate
    the result add floats in the same order as the reference.
    """
    n_values = tuple(n_values)
    tokens = text.lower().split()
    if len(tokens) == 1:
        return Counter(_token_grams(tokens[0], n_values))
    grams: Counter[str] = Counter()
    for token in tokens:
        grams.update(_token_grams(token, n_values))
    return grams


@dataclass
class NGramModel:
    """A per-language n-gram frequency model with add-one smoothing.

    Attributes:
        language_code: Code of the language this model represents.
        counts: Raw n-gram counts accumulated from training text.
        total: Total number of n-grams observed (kept in sync with counts).
    """

    language_code: str
    counts: Counter[str] = field(default_factory=Counter)
    total: int = 0
    n_values: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        # Lazily-built {gram: smoothed log-probability} table plus the
        # unseen-gram log-probability, invalidated by update().  Excluded
        # from dataclass comparison/pickling semantics by being assigned
        # here rather than declared as a field.
        self._log_table: dict[str, float] | None = None
        self._log_unseen: float = 0.0

    def __getstate__(self) -> dict:
        return {"language_code": self.language_code, "counts": self.counts,
                "total": self.total, "n_values": self.n_values}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._log_table = None
        self._log_unseen = 0.0

    def update(self, text: str) -> None:
        """Accumulate the n-grams of ``text`` into the model."""
        grams = extract_ngrams(text, self.n_values)
        self.counts.update(grams)
        self.total += sum(grams.values())
        self._log_table = None

    def _ensure_log_table(self) -> dict[str, float]:
        """Precompute log-probabilities of every known gram.

        Each entry is the add-one smoothed log-probability of the gram, the
        exact expression the per-gram reference evaluates, so fast scores
        are float-identical to it.
        """
        table = self._log_table
        if table is None:
            denominator = self.total + max(len(self.counts), 1)
            table = {gram: math.log((count + 1) / denominator)
                     for gram, count in self.counts.items()}
            self._log_unseen = math.log(1 / denominator)
            self._log_table = table
        return table

    def score(self, text: str) -> float:
        """Average per-gram log-likelihood of ``text`` under this model.

        Averaging (rather than summing) makes scores comparable across texts
        of different lengths, which matters because accessibility strings are
        often very short.

        Fast path over the per-gram reference scorer (in
        ``tests/langid_oracle.py``): grams are looked up in the
        precomputed log-probability table instead of re-deriving the smoothed
        probability per call.  Results are float-identical (same expressions,
        same summation order); the parity suite pins this.
        """
        return self.score_grams(extract_ngrams(text, self.n_values))

    def score_grams(self, grams: Mapping[str, int]) -> float:
        """Score pre-extracted gram counts (lets callers share extraction)."""
        if not grams:
            return float("-inf")
        table = self._ensure_log_table()
        unseen = self._log_unseen
        total = 0
        log_likelihood = 0.0
        for gram, count in grams.items():
            total += count
            log_likelihood += count * table.get(gram, unseen)
        return log_likelihood / total


class NGramClassifier:
    """Maximum-likelihood classifier over a set of :class:`NGramModel`.

    Typical use::

        classifier = NGramClassifier.train({
            "en": ["the quick brown fox", ...],
            "vi": ["xin chào thế giới", ...],
        })
        classifier.classify("hello world")   # -> "en"
    """

    def __init__(self, models: Mapping[str, NGramModel]) -> None:
        if not models:
            raise ValueError("NGramClassifier requires at least one model")
        self._models = dict(models)

    @classmethod
    def train(cls, corpus: Mapping[str, Iterable[str]],
              n_values: tuple[int, ...] = (1, 2, 3)) -> "NGramClassifier":
        """Train one model per language from an in-memory corpus."""
        models: dict[str, NGramModel] = {}
        for code, texts in corpus.items():
            model = NGramModel(language_code=code, n_values=n_values)
            for text in texts:
                model.update(text)
            models[code] = model
        return cls(models)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self._models))

    def scores(self, text: str) -> dict[str, float]:
        """Per-language average log-likelihood of ``text``.

        Grams are extracted once per distinct ``n_values`` configuration and
        shared across models via :meth:`NGramModel.score_grams`, instead of
        re-tokenising the text once per language.
        """
        by_n_values: dict[tuple[int, ...], Counter[str]] = {}
        scored: dict[str, float] = {}
        for code, model in self._models.items():
            grams = by_n_values.get(model.n_values)
            if grams is None:
                grams = by_n_values[model.n_values] = extract_ngrams(text, model.n_values)
            scored[code] = model.score_grams(grams)
        return scored

    def classify(self, text: str) -> str | None:
        """Return the best-scoring language code, or ``None`` for empty input.

        Ties break lexicographically by language code for determinism.
        """
        if not text.strip():
            return None
        scored = self.scores(text)
        best = max(sorted(scored), key=lambda code: scored[code])
        if scored[best] == float("-inf"):
            return None
        return best

    def confidence(self, text: str) -> tuple[str | None, float]:
        """Return ``(language, margin)`` where margin is the log-likelihood gap.

        The margin is the difference between the best and the second-best
        score; 0.0 when fewer than two models are available or the input is
        empty.  Callers can threshold on the margin to avoid committing to a
        language for highly ambiguous strings.
        """
        if not text.strip():
            return None, 0.0
        scored = self.scores(text)
        best = max(sorted(scored), key=lambda code: scored[code])
        if scored[best] == float("-inf"):
            return None, 0.0
        others = [score for code, score in scored.items() if code != best and score != float("-inf")]
        if not others:
            return best, 0.0
        return best, scored[best] - max(others)


# A tiny built-in English seed corpus.  The web generator's English lexicon is
# richer, but a standalone seed keeps this module import-safe and usable
# without the webgen subpackage (e.g. in the filtering rules, which only need
# to recognise common English UI words).
ENGLISH_SEED_TEXTS: tuple[str, ...] = (
    "the quick brown fox jumps over the lazy dog",
    "home about contact news sports business entertainment technology",
    "sign in register subscribe search menu close next previous read more",
    "privacy policy terms of service copyright all rights reserved",
    "breaking news weather forecast today latest updates photo gallery video",
    "add to cart checkout payment shipping delivery order track returns",
    "login logout password username email address phone number submit cancel",
    "download upload share like comment follow unfollow profile settings help",
)


def default_english_model() -> NGramModel:
    """An English n-gram model trained on the built-in seed corpus."""
    model = NGramModel(language_code="en")
    for text in ENGLISH_SEED_TEXTS:
        model.update(text)
    return model
