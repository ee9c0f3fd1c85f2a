"""Script-proportion language detection.

This is the paper's detection mechanism: a text is attributed to languages by
the proportion of its textual characters drawn from each language's script,
with language-specific characters used to disambiguate languages that share a
script (Urdu vs. Modern Standard Arabic, Hindi vs. Marathi, Mandarin vs.
Cantonese vs. Japanese).  English is attributed from Latin-script characters,
optionally refined by the n-gram classifier in :mod:`repro.langid.ngram`.

The main entry points are:

* :class:`ScriptDetector` — configured with a target language, computes the
  share of a text written in that language, in English and in other
  languages; used for the 50% site-inclusion criterion and for the
  visible-vs-accessibility mismatch analyses.
* :func:`detect_language_mix` — convenience wrapper returning a
  :class:`LanguageShare` for a text and target language.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.langid.languages import Language, get_language
from repro.langid.scripts import SCRIPT_CODES, Script, script_codes, script_shares

_LATIN_CODE = SCRIPT_CODES[Script.LATIN]


@dataclass(frozen=True)
class LanguageShare:
    """Share of a text attributed to the target language and to English.

    Attributes:
        native: Fraction (0..1) of textual characters in the target language.
        english: Fraction of textual characters attributed to English
            (Latin-script text).
        other: Fraction attributed to any other language/script.
        textual_chars: Number of textual characters considered.  When zero,
            all fractions are zero and the text carries no language signal.
    """

    native: float
    english: float
    other: float
    textual_chars: int

    @property
    def is_empty(self) -> bool:
        """True when the text contained no textual characters at all."""
        return self.textual_chars == 0

    def dominant(self) -> str:
        """Return ``"native"``, ``"english"`` or ``"other"``.

        Ties resolve in the order native, english, other, which makes the
        classification stable and biases toward the target language only when
        shares are exactly equal (a rare event on real text).
        """
        if self.is_empty:
            return "other"
        best = max(self.native, self.english, self.other)
        if self.native == best:
            return "native"
        if self.english == best:
            return "english"
        return "other"


class ScriptDetector:
    """Detects how much of a text is written in a given target language.

    Args:
        language: The target language, by :class:`Language` or code.
        latin_is_english: When true (the default), Latin-script characters are
            attributed to English.  The paper treats Latin text on the studied
            pages as English; the ablation benchmark switches this off to
            quantify the assumption's impact.

    The detector is stateless and cheap to construct; one per
    language–country pair is typical.
    """

    def __init__(self, language: Language | str, *, latin_is_english: bool = True) -> None:
        self.language = get_language(language) if isinstance(language, str) else language
        self.latin_is_english = latin_is_english
        self._native_codes = tuple(SCRIPT_CODES[script] for script in set(self.language.scripts))
        self._specific = self.language.specific_chars

    def share(self, text: str) -> LanguageShare:
        """Compute the :class:`LanguageShare` of ``text``.

        Script-sharing refinement: when the target language defines
        ``specific_chars`` (e.g. Urdu), text in the shared script counts as
        native only if at least one language-specific character is present;
        conversely, when another language owns the shared script via its own
        specific characters (e.g. Urdu characters on an Arabic-target page),
        that portion is attributed to ``other``.
        """
        with perf.stage("langid"):
            perf.count("langid.texts")
            perf.count("langid.chars", len(text))
            # One translate classifies the text; each script is then one
            # C-level count of its code over the textual characters.
            coded = script_codes(text, textual_only=True)
            total = len(coded)
            if total == 0:
                return LanguageShare(0.0, 0.0, 0.0, 0)

            native_chars = sum(map(coded.count, self._native_codes))

            if self._specific and native_chars:
                # The target shares its script with a sibling language; require
                # evidence of the target's specific characters, otherwise split
                # the shared-script mass off to "other".  frozenset.isdisjoint
                # iterates the text in C, replacing the per-char membership
                # generator the naive version used.
                if self._specific.isdisjoint(text):
                    native_chars = 0

            english_chars = coded.count(_LATIN_CODE) if self.latin_is_english else 0
            other_chars = total - native_chars - english_chars
            return LanguageShare(
                native=native_chars / total,
                english=english_chars / total,
                other=max(other_chars, 0) / total,
                textual_chars=total,
            )

    def native_share(self, text: str) -> float:
        """Shortcut for ``share(text).native``."""
        return self.share(text).native

    def meets_threshold(self, text: str, threshold: float = 0.5) -> bool:
        """Apply the paper's site-inclusion criterion to ``text``.

        A site qualifies when at least ``threshold`` (default 50%) of its
        visible textual content is in the target language.  Empty text never
        qualifies.
        """
        share = self.share(text)
        if share.is_empty:
            return False
        return share.native >= threshold


# Detectors are stateless and cheap, but not free: construction resolves the
# language and builds the native-script set.  The per-string classification
# helpers below run once per accessibility text, so they share one detector
# per (language, latin_is_english) instead of constructing a fresh one.
_DETECTOR_CACHE: dict[tuple[Language | str, bool], ScriptDetector] = {}


def cached_detector(language: Language | str, *, latin_is_english: bool = True) -> ScriptDetector:
    """A shared :class:`ScriptDetector` for ``language`` (stateless, reusable)."""
    key = (language, latin_is_english)
    detector = _DETECTOR_CACHE.get(key)
    if detector is None:
        detector = ScriptDetector(language, latin_is_english=latin_is_english)
        _DETECTOR_CACHE[key] = detector
    return detector


def detect_language_mix(text: str, language: Language | str) -> LanguageShare:
    """Convenience wrapper: language share of ``text`` for ``language``."""
    return cached_detector(language).share(text)


def dominant_language_code(text: str, candidates: list[Language]) -> str | None:
    """Pick the candidate language with the highest native share in ``text``.

    Returns ``None`` when no candidate reaches a non-zero share.  Used by the
    synthetic-web validation tests and by the selection ablation; the paper's
    pipeline itself always knows the target language of a country a priori.
    """
    best_code: str | None = None
    best_share = 0.0
    for language in candidates:
        share = ScriptDetector(language).native_share(text)
        if share > best_share:
            best_share = share
            best_code = language.code
    return best_code


def visible_script_profile(text: str) -> dict[str, float]:
    """Expose raw script shares keyed by script value, for reports and tests."""
    return {script.value: share for script, share in script_shares(text).items()}
