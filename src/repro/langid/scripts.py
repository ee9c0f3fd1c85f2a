"""Unicode script classification.

The paper's primary language-detection mechanism is a "Unicode-based heuristic
that matches visible text content against script-specific character ranges
(e.g., Devanagari for Hindi, Hangul for Korean, and Cyrillic for Russian)".
This module implements that heuristic: it assigns a :class:`Script` to every
character and provides aggregate script histograms over strings.

The ranges below cover the scripts of the paper's candidate-language pool
(26 languages) plus Latin and a handful of auxiliary scripts so that noisy
real-world text (emoji, symbols, digits) is classified consistently rather
than being silently dropped.

Only the code-point ranges relevant to script identity are listed; the goal is
not full Unicode property coverage but a faithful re-implementation of the
paper's detection heuristic.

Counting is one kernel: :func:`script_codes` rewrites a text as one ASCII
code per character (:data:`SCRIPT_CODES`) with a single ``str.translate``
over tables memoised per distinct character, and every count —
:func:`script_histogram`, :func:`textual_length` and
:meth:`repro.langid.detector.ScriptDetector.share` — is ``len`` or
``str.count`` over that string.
"""

from __future__ import annotations

import enum
import threading
import unicodedata
from bisect import bisect_right
from collections import Counter
from typing import Iterable, Mapping


class Script(str, enum.Enum):
    """Writing systems recognised by the detector.

    The string values are stable identifiers used in serialized datasets and
    reports, so they must not be renamed once a dataset has been written.
    """

    LATIN = "latin"
    CYRILLIC = "cyrillic"
    GREEK = "greek"
    ARABIC = "arabic"
    HEBREW = "hebrew"
    DEVANAGARI = "devanagari"
    BENGALI = "bengali"
    GURMUKHI = "gurmukhi"
    GUJARATI = "gujarati"
    ORIYA = "oriya"
    TAMIL = "tamil"
    TELUGU = "telugu"
    KANNADA = "kannada"
    MALAYALAM = "malayalam"
    SINHALA = "sinhala"
    THAI = "thai"
    LAO = "lao"
    MYANMAR = "myanmar"
    KHMER = "khmer"
    GEORGIAN = "georgian"
    ARMENIAN = "armenian"
    ETHIOPIC = "ethiopic"
    HAN = "han"
    HIRAGANA = "hiragana"
    KATAKANA = "katakana"
    HANGUL = "hangul"
    BOPOMOFO = "bopomofo"
    DIGIT = "digit"
    PUNCTUATION = "punctuation"
    SYMBOL = "symbol"
    EMOJI = "emoji"
    WHITESPACE = "whitespace"
    OTHER = "other"

    def is_textual(self) -> bool:
        """Return ``True`` when the script carries linguistic content.

        Digits, punctuation, symbols, emoji and whitespace are "common"
        characters: they appear in text of any language and therefore do not
        count toward the share of any particular language.
        """
        return self not in _NON_TEXTUAL

    def is_cjk(self) -> bool:
        """Return ``True`` for scripts written without inter-word spaces.

        The paper's filtering rules (Appendix H) use a different
        "too short" threshold for CJK scripts (1 character instead of 3),
        which is why the distinction matters beyond detection.
        """
        return self in _CJK_SCRIPTS


_NON_TEXTUAL = {
    Script.DIGIT,
    Script.PUNCTUATION,
    Script.SYMBOL,
    Script.EMOJI,
    Script.WHITESPACE,
    Script.OTHER,
}

_CJK_SCRIPTS = {Script.HAN, Script.HIRAGANA, Script.KATAKANA, Script.HANGUL, Script.BOPOMOFO}


# Each entry is (start, end_inclusive, Script).  Ranges are kept sorted by
# start so that lookup can binary-search.  Emoji ranges are listed before the
# generic symbol fall-through so they win.
_RANGES: list[tuple[int, int, Script]] = [
    # Basic Latin letters.
    (0x0041, 0x005A, Script.LATIN),
    (0x0061, 0x007A, Script.LATIN),
    # Latin-1 supplement letters and Latin extended blocks.
    (0x00C0, 0x024F, Script.LATIN),
    (0x1E00, 0x1EFF, Script.LATIN),
    (0x2C60, 0x2C7F, Script.LATIN),
    (0xA720, 0xA7FF, Script.LATIN),
    # Greek and Coptic, Greek extended.
    (0x0370, 0x03FF, Script.GREEK),
    (0x1F00, 0x1FFF, Script.GREEK),
    # Cyrillic and supplements.
    (0x0400, 0x04FF, Script.CYRILLIC),
    (0x0500, 0x052F, Script.CYRILLIC),
    (0x2DE0, 0x2DFF, Script.CYRILLIC),
    (0xA640, 0xA69F, Script.CYRILLIC),
    # Armenian.
    (0x0530, 0x058F, Script.ARMENIAN),
    # Hebrew.
    (0x0590, 0x05FF, Script.HEBREW),
    (0xFB1D, 0xFB4F, Script.HEBREW),
    # Arabic (plus presentation forms and supplement).
    (0x0600, 0x06FF, Script.ARABIC),
    (0x0750, 0x077F, Script.ARABIC),
    (0x08A0, 0x08FF, Script.ARABIC),
    (0xFB50, 0xFDFF, Script.ARABIC),
    (0xFE70, 0xFEFF, Script.ARABIC),
    # Indic scripts.
    (0x0900, 0x097F, Script.DEVANAGARI),
    (0x0980, 0x09FF, Script.BENGALI),
    (0x0A00, 0x0A7F, Script.GURMUKHI),
    (0x0A80, 0x0AFF, Script.GUJARATI),
    (0x0B00, 0x0B7F, Script.ORIYA),
    (0x0B80, 0x0BFF, Script.TAMIL),
    (0x0C00, 0x0C7F, Script.TELUGU),
    (0x0C80, 0x0CFF, Script.KANNADA),
    (0x0D00, 0x0D7F, Script.MALAYALAM),
    (0x0D80, 0x0DFF, Script.SINHALA),
    # Devanagari extended.
    (0xA8E0, 0xA8FF, Script.DEVANAGARI),
    # South-east Asian scripts.
    (0x0E00, 0x0E7F, Script.THAI),
    (0x0E80, 0x0EFF, Script.LAO),
    (0x1000, 0x109F, Script.MYANMAR),
    (0xAA60, 0xAA7F, Script.MYANMAR),
    (0x1780, 0x17FF, Script.KHMER),
    # Georgian.
    (0x10A0, 0x10FF, Script.GEORGIAN),
    (0x2D00, 0x2D2F, Script.GEORGIAN),
    # Ethiopic (Amharic).
    (0x1200, 0x137F, Script.ETHIOPIC),
    (0x1380, 0x139F, Script.ETHIOPIC),
    (0x2D80, 0x2DDF, Script.ETHIOPIC),
    # Hangul.
    (0x1100, 0x11FF, Script.HANGUL),
    (0x3130, 0x318F, Script.HANGUL),
    (0xA960, 0xA97F, Script.HANGUL),
    (0xAC00, 0xD7A3, Script.HANGUL),
    (0xD7B0, 0xD7FF, Script.HANGUL),
    # Japanese kana.
    (0x3040, 0x309F, Script.HIRAGANA),
    (0x30A0, 0x30FF, Script.KATAKANA),
    (0x31F0, 0x31FF, Script.KATAKANA),
    (0xFF66, 0xFF9D, Script.KATAKANA),
    # Bopomofo.
    (0x3100, 0x312F, Script.BOPOMOFO),
    # Han (CJK ideographs) — unified, extension A, compatibility.
    (0x3400, 0x4DBF, Script.HAN),
    (0x4E00, 0x9FFF, Script.HAN),
    (0xF900, 0xFAFF, Script.HAN),
    (0x20000, 0x2A6DF, Script.HAN),
    (0x2A700, 0x2EBEF, Script.HAN),
    # Emoji and pictographs.
    (0x1F300, 0x1F5FF, Script.EMOJI),
    (0x1F600, 0x1F64F, Script.EMOJI),
    (0x1F680, 0x1F6FF, Script.EMOJI),
    (0x1F900, 0x1F9FF, Script.EMOJI),
    (0x1FA70, 0x1FAFF, Script.EMOJI),
    (0x2600, 0x26FF, Script.EMOJI),
    (0x2700, 0x27BF, Script.EMOJI),
    (0xFE0F, 0xFE0F, Script.EMOJI),
    (0x1F1E6, 0x1F1FF, Script.EMOJI),
]

_RANGES.sort(key=lambda entry: entry[0])
_STARTS = [entry[0] for entry in _RANGES]

# Characters that are shared across Arabic-script languages but that, when
# present, indicate a specific language.  The paper notes: "For overlapping
# scripts, such as Arabic and Urdu, we include additional language-specific
# characters to improve precision."
URDU_SPECIFIC_CHARS = frozenset("ٹڈڑںھہۂۃےۓڻ")
PERSIAN_SPECIFIC_CHARS = frozenset("پچژگ")
# Characters specific to the Arabic language presentation of Modern Standard
# Arabic text (i.e. frequently used in MSA but absent from Urdu orthography).
ARABIC_TATWEEL = "ـ"


def _classify(char: str) -> Script:
    """Range/category classification of one character (no memoisation)."""
    codepoint = ord(char)
    index = bisect_right(_STARTS, codepoint) - 1
    if index >= 0:
        start, end, script = _RANGES[index]
        if start <= codepoint <= end:
            return script
    if char.isspace():
        return Script.WHITESPACE
    category = unicodedata.category(char)
    if category == "Nd":
        return Script.DIGIT
    if category.startswith("P"):
        return Script.PUNCTUATION
    if category.startswith("S"):
        return Script.SYMBOL
    if category.startswith("N"):
        return Script.DIGIT
    return Script.OTHER


#: One-character ASCII code per script, the alphabet of the translate tables.
SCRIPT_CODES: dict[Script, str] = {
    script: chr(ord("A") + index) for index, script in enumerate(Script)}
_SCRIPT_OF_CODE: dict[str, Script] = {code: script for script, code in SCRIPT_CODES.items()}
_TEXTUAL_CODES: dict[Script, str | None] = {
    script: code if script.is_textual() else None for script, code in SCRIPT_CODES.items()}


# Memoised codepoint→script lookup, plus two ``str.translate`` tables filled
# and replaced with it: ``_CODE_TABLE`` maps each memoised character to its
# script's code, ``_TEXTUAL_CODE_TABLE`` the same but non-textual scripts to
# ``None`` (deleted).  The bisect + unicodedata fallback runs once per
# distinct character; the bound keeps adversarial input (e.g. fuzzing across
# the whole codepoint space) from growing the three dicts without limit.
#
# All 128 ASCII code points are always present, so a translated text is pure
# ASCII exactly when every character was memoised: an unseen character
# survives ``translate`` as itself, non-ASCII, and ``str.isascii`` catches
# it.  Lookups take no lock.  Fills and resets hold ``_MEMO_LOCK``, and a
# reset binds fresh ASCII-seeded dicts rather than clearing the live ones, so
# a concurrent lookup never meets an untranslated ASCII character (which
# would be indistinguishable from a code).
_SCRIPT_CACHE: dict[str, Script] = {}
_CODE_TABLE: dict[int, str] = {}
_TEXTUAL_CODE_TABLE: dict[int, str | None] = {}
_SCRIPT_CACHE_MAX = 0x20000
_MEMO_LOCK = threading.Lock()


def _memoise(chars: Iterable[str], cache: dict[str, Script], table: dict[int, str],
             textual: dict[int, str | None]) -> None:
    for char in chars:
        script = cache[char] = _classify(char)
        table[ord(char)] = SCRIPT_CODES[script]
        textual[ord(char)] = _TEXTUAL_CODES[script]


def _reset_cache() -> None:
    """Replace the memo and both tables with fresh ones holding only ASCII."""
    global _SCRIPT_CACHE, _CODE_TABLE, _TEXTUAL_CODE_TABLE
    cache, table, textual = {}, {}, {}
    _memoise(map(chr, range(128)), cache, table, textual)
    _SCRIPT_CACHE, _CODE_TABLE, _TEXTUAL_CODE_TABLE = cache, table, textual


_reset_cache()


def _fill_cache(text: str) -> None:
    """Memoise every distinct character of ``text`` (caller holds ``_MEMO_LOCK``)."""
    missing = [char for char in set(text) if char not in _SCRIPT_CACHE]
    if len(_SCRIPT_CACHE) + len(missing) > _SCRIPT_CACHE_MAX:
        _reset_cache()
        missing = [char for char in set(text) if char not in _SCRIPT_CACHE]
    _memoise(missing, _SCRIPT_CACHE, _CODE_TABLE, _TEXTUAL_CODE_TABLE)


def script_of(char: str) -> Script:
    """Classify a single character into a :class:`Script`.

    ``char`` must be a one-character string.  Characters outside every known
    range fall back to Unicode categories: decimal digits map to
    :attr:`Script.DIGIT`, whitespace to :attr:`Script.WHITESPACE`,
    punctuation/symbol categories to their respective scripts and anything
    else to :attr:`Script.OTHER`.
    """
    if len(char) != 1:
        raise ValueError(f"script_of expects a single character, got {char!r}")
    script = _SCRIPT_CACHE.get(char)
    if script is None:
        with _MEMO_LOCK:
            _fill_cache(char)
            script = _SCRIPT_CACHE[char]
    return script


def script_codes(text: str, *, textual_only: bool = False) -> str:
    """``text`` with every character replaced by its script's code.

    The result is an ASCII string over :data:`SCRIPT_CODES`, one code per
    character of ``text``; with ``textual_only`` the characters of
    non-textual scripts are dropped instead, so its length is
    :func:`textual_length`.  Counting one script is then one
    ``str.count`` of its code.
    """
    coded = text.translate(_TEXTUAL_CODE_TABLE if textual_only else _CODE_TABLE)
    if not coded.isascii():
        # Retry under the lock, so no reset can drop a character in between.
        with _MEMO_LOCK:
            _fill_cache(text)
            coded = text.translate(_TEXTUAL_CODE_TABLE if textual_only else _CODE_TABLE)
    return coded


def script_histogram(text: str, *, textual_only: bool = False) -> Counter[Script]:
    """Count characters of ``text`` per script.

    When ``textual_only`` is true, common characters (digits, punctuation,
    symbols, emoji, whitespace) are excluded, which is the denominator used
    for the paper's "50% or more visible textual content in the target
    language" inclusion criterion.

    The text is classified by :func:`script_codes` (one ``str.translate``)
    and the codes are counted in C; scripts appear in the order of their
    first character, and only scripts that occur.  Pinned equal to a
    per-character reference by the parity suite (``tests/langid_oracle.py``).
    """
    return Counter({_SCRIPT_OF_CODE[code]: count for code, count
                    in Counter(script_codes(text, textual_only=textual_only)).items()})


def textual_length(text: str) -> int:
    """Number of characters in ``text`` that belong to a textual script."""
    return len(script_codes(text, textual_only=True))


def script_shares(text: str) -> dict[Script, float]:
    """Return the proportion of textual characters per script.

    The proportions sum to 1.0 over textual characters; an empty or fully
    non-textual string yields an empty mapping.
    """
    counts = script_histogram(text, textual_only=True)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {script: count / total for script, count in counts.items()}


def dominant_script(text: str) -> Script | None:
    """Return the textual script with the largest share, or ``None``.

    Ties are broken deterministically by script identifier so that detection
    results are reproducible across runs.
    """
    shares = script_shares(text)
    if not shares:
        return None
    return max(sorted(shares, key=lambda s: s.value), key=lambda s: shares[s])


def contains_script(text: str, script: Script) -> bool:
    """Return ``True`` when at least one character of ``text`` uses ``script``."""
    return any(script_of(char) is script for char in text)


def is_emoji_only(text: str) -> bool:
    """Return ``True`` when the non-whitespace content of ``text`` is only emoji.

    Used by the filtering pipeline's *Emoji* discard rule (Appendix H): emoji
    are discarded because screen readers often fail to interpret them.
    Variation selectors and zero-width joiners are tolerated because they are
    part of emoji sequences.
    """
    stripped = [char for char in text if not char.isspace()]
    if not stripped:
        return False
    tolerated = {"‍", "︎", "️"}
    sawemoji = False
    for index, char in enumerate(stripped):
        if char in tolerated:
            continue
        script = script_of(char)
        if script is Script.EMOJI:
            sawemoji = True
            continue
        # Symbols rendered with an emoji variation selector (e.g. "▶️") are
        # emoji presentations of base symbols.
        next_char = stripped[index + 1] if index + 1 < len(stripped) else ""
        if script is Script.SYMBOL and next_char == "️":
            sawemoji = True
            continue
        return False
    return sawemoji


def share_of_scripts(text: str, scripts: Iterable[Script]) -> float:
    """Fraction of textual characters of ``text`` drawn from ``scripts``."""
    wanted = set(scripts)
    counts = script_histogram(text, textual_only=True)
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return sum(count for script, count in counts.items() if script in wanted) / total


def merge_histograms(histograms: Iterable[Mapping[Script, int]]) -> Counter[Script]:
    """Sum several script histograms into one, e.g. across pages of a site."""
    merged: Counter[Script] = Counter()
    for histogram in histograms:
        merged.update(histogram)
    return merged
