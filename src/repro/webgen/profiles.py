"""Statistical behaviour profiles for the synthetic web.

The live web is not reachable in the reproduction environment, so the page
generator is driven by *profiles* calibrated to the aggregate numbers the
paper reports:

* :class:`ElementProfile` — per accessibility element (Table 2): how often
  the element appears on a page, how often its accessibility attribute is
  missing or empty, and how long/wordy its text is when present.
* :class:`CountryProfile` — per country (Figures 2–5): how much of the
  visible text is in the native language, how the language of accessibility
  text is distributed (native / English / mixed), how often accessibility
  text is uninformative and with which discard-category mix, how deep the
  country's CrUX rank distribution reaches, and how aggressively sites block
  VPN traffic.

The calibration targets are the paper's numbers; absolute agreement is not
expected (the generator is a model, not the web), but the ordering and rough
magnitudes — which countries default to English, which elements are most
often missing, where mixed-language hints are common — are preserved, which
is what the benchmark harnesses check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.langid.languages import LANGCRUX_PAIRS, LanguageCountryPair, get_pair


@dataclass(frozen=True)
class ElementProfile:
    """Generation parameters for one accessibility element type.

    Attributes:
        element_id: Identifier matching the audit rule id (e.g. ``image-alt``).
        min_per_page / max_per_page: How many instances a generated page has.
        missing_rate: Probability that an instance lacks its accessibility
            attribute entirely (Table 2 "Missing %", mean column).
        empty_rate: Probability that the attribute is present but empty
            (Table 2 "Empty %", mean column).
        mean_words / std_words: Word count of the text when present
            (Table 2 "Word Count", mean column).
        visible_text_fallback: Whether the element typically carries visible
            inner text that screen readers fall back to (buttons, links),
            which is the paper's explanation for high missing rates.
    """

    element_id: str
    min_per_page: int
    max_per_page: int
    missing_rate: float
    empty_rate: float
    mean_words: float
    std_words: float
    visible_text_fallback: bool = False


#: Element profiles calibrated to Table 2 (mean missing/empty percentages and
#: mean word counts).  ``document-title`` is part of Table 1 but not Table 2;
#: titles are generated nearly always present.
ELEMENT_PROFILES: dict[str, ElementProfile] = {
    profile.element_id: profile
    for profile in (
        ElementProfile("button-name", 1, 8, missing_rate=0.6192, empty_rate=0.0036,
                       mean_words=3.83, std_words=2.0, visible_text_fallback=True),
        ElementProfile("document-title", 1, 1, missing_rate=0.02, empty_rate=0.01,
                       mean_words=6.0, std_words=3.0),
        ElementProfile("frame-title", 0, 2, missing_rate=0.7581, empty_rate=0.0021,
                       mean_words=2.54, std_words=1.5),
        ElementProfile("image-alt", 4, 40, missing_rate=0.1712, empty_rate=0.2539,
                       mean_words=3.67, std_words=2.5),
        ElementProfile("input-button-name", 0, 3, missing_rate=0.9390, empty_rate=0.0019,
                       mean_words=2.83, std_words=1.5, visible_text_fallback=True),
        ElementProfile("input-image-alt", 0, 1, missing_rate=0.3507, empty_rate=0.0485,
                       mean_words=1.41, std_words=0.8),
        ElementProfile("label", 0, 6, missing_rate=0.9855, empty_rate=0.0002,
                       mean_words=1.67, std_words=1.0, visible_text_fallback=True),
        ElementProfile("link-name", 5, 60, missing_rate=0.9596, empty_rate=0.0004,
                       mean_words=4.67, std_words=2.5, visible_text_fallback=True),
        ElementProfile("object-alt", 0, 1, missing_rate=0.9419, empty_rate=0.0026,
                       mean_words=2.49, std_words=1.5),
        ElementProfile("select-name", 0, 2, missing_rate=0.8984, empty_rate=0.0005,
                       mean_words=2.30, std_words=1.2, visible_text_fallback=True),
        ElementProfile("summary-name", 0, 3, missing_rate=0.9047, empty_rate=0.0017,
                       mean_words=1.18, std_words=0.6, visible_text_fallback=True),
        ElementProfile("svg-img-alt", 0, 6, missing_rate=0.9666, empty_rate=0.0015,
                       mean_words=1.88, std_words=1.0),
    )
}


#: Discard-category keys used by the uninformative-text mix.  They match the
#: category identifiers of :mod:`repro.core.filtering`.
DISCARD_CATEGORIES: tuple[str, ...] = (
    "single_word", "too_short", "generic_action", "placeholder", "dev_label",
    "file_name", "url_or_path", "label_number_pattern", "ordinal_phrase",
    "mixed_alnum", "emoji",
)


@dataclass(frozen=True)
class CountryProfile:
    """Per-country generation parameters.

    Attributes:
        country_code: ISO code (``bd``, ``cn`` ...), matching the paper's axes.
        language_code: Target language code.
        visible_native_mean / visible_native_std: Distribution of the share
            of visible text in the native language for qualifying sites
            (truncated to [0.5, 1.0] because sites below 50% are excluded by
            construction — Figure 2).
        a11y_native_rate / a11y_english_rate / a11y_mixed_rate: Language mix
            of *informative* accessibility texts (Figure 4).  Must sum to 1.
        low_native_a11y_site_rate: Fraction of sites that essentially never
            use the native language in accessibility text regardless of their
            visible content (the mismatch cluster of Figures 5 and 8; above
            0.4 for Bangladesh and India).
        uninformative_rate: Fraction of present, non-empty accessibility
            texts that are uninformative (Figure 3 totals).
        discard_mix: Relative weights of discard categories for this country
            (Figure 3 per-country breakdown).  Weights are normalised at use.
        rank_log10_mean / rank_log10_std: Location/scale of the site-rank
            distribution on a log10 scale (Appendix C / Figure 7: most
            countries concentrate under 50k, India reaches toward 1M).
        vpn_block_rate: Probability that a site refuses VPN/proxy traffic and
            must be replaced during crawling (Section 2, Limitations).
        global_variant_rate: Probability that a site serves an
            English-leaning global variant to out-of-country clients, which
            is what makes VPN-based localization matter.
    """

    country_code: str
    language_code: str
    visible_native_mean: float
    visible_native_std: float
    a11y_native_rate: float
    a11y_english_rate: float
    a11y_mixed_rate: float
    low_native_a11y_site_rate: float
    uninformative_rate: float
    discard_mix: Mapping[str, float]
    rank_log10_mean: float
    rank_log10_std: float
    vpn_block_rate: float = 0.02
    global_variant_rate: float = 0.6

    def __post_init__(self) -> None:
        total = self.a11y_native_rate + self.a11y_english_rate + self.a11y_mixed_rate
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{self.country_code}: accessibility language rates must sum to 1, got {total}"
            )
        unknown = set(self.discard_mix) - set(DISCARD_CATEGORIES)
        if unknown:
            raise ValueError(f"{self.country_code}: unknown discard categories {unknown}")

    @property
    def pair(self) -> LanguageCountryPair:
        return get_pair(self.country_code)


def _mix(single_word: float, too_short: float, generic_action: float, placeholder: float,
         dev_label: float, file_name: float, url_or_path: float, label_number: float,
         ordinal: float, mixed_alnum: float, emoji: float) -> dict[str, float]:
    return {
        "single_word": single_word,
        "too_short": too_short,
        "generic_action": generic_action,
        "placeholder": placeholder,
        "dev_label": dev_label,
        "file_name": file_name,
        "url_or_path": url_or_path,
        "label_number_pattern": label_number,
        "ordinal_phrase": ordinal,
        "mixed_alnum": mixed_alnum,
        "emoji": emoji,
    }


#: Country profiles.  Calibration anchors (from the paper):
#:   Figure 3 — single-word share: th 33%, ru 22.2%, gr 18.0%, in 17.1%,
#:     eg 10.5%, bd 6.9%; too-short: ru 4.26%, th 4.24%, il 4.03%, in 3.6%;
#:     URL/path: hk 3.8%, kr 3.5%, ru 3.17%.
#:   Figure 4 — English share of informative texts: bd 79% (highest), strong
#:     in eg/th/gr; mixed share: gr 35%, th 34%, hk 30%, >20% in cn/ru/jp/in.
#:   Figure 5 — >40% of bd/in sites have <10% native accessibility text;
#:     th/cn/hk above 25%; jp/il below 10%.
#:   Figure 7 — ranks concentrate below 50k except India (toward 1M).
COUNTRY_PROFILES: dict[str, CountryProfile] = {
    profile.country_code: profile
    for profile in (
        CountryProfile(
            "bd", "bn",
            visible_native_mean=0.88, visible_native_std=0.10,
            a11y_native_rate=0.10, a11y_english_rate=0.79, a11y_mixed_rate=0.11,
            low_native_a11y_site_rate=0.45,
            uninformative_rate=0.22,
            discard_mix=_mix(6.9, 1.5, 4.0, 3.0, 1.5, 1.0, 1.5, 1.0, 0.8, 1.0, 0.5),
            rank_log10_mean=4.1, rank_log10_std=0.45,
        ),
        CountryProfile(
            "cn", "zh",
            visible_native_mean=0.90, visible_native_std=0.08,
            a11y_native_rate=0.35, a11y_english_rate=0.42, a11y_mixed_rate=0.23,
            low_native_a11y_site_rate=0.28,
            uninformative_rate=0.28,
            discard_mix=_mix(14.0, 2.0, 5.0, 3.5, 2.0, 1.5, 2.0, 1.2, 0.8, 1.5, 0.8),
            rank_log10_mean=4.2, rank_log10_std=0.45,
        ),
        CountryProfile(
            "dz", "ar",
            visible_native_mean=0.82, visible_native_std=0.12,
            a11y_native_rate=0.30, a11y_english_rate=0.55, a11y_mixed_rate=0.15,
            low_native_a11y_site_rate=0.30,
            uninformative_rate=0.24,
            discard_mix=_mix(12.0, 2.0, 4.0, 3.0, 1.5, 1.2, 1.5, 1.0, 0.7, 1.2, 0.5),
            rank_log10_mean=4.3, rank_log10_std=0.5,
        ),
        CountryProfile(
            "eg", "arz",
            visible_native_mean=0.85, visible_native_std=0.11,
            a11y_native_rate=0.18, a11y_english_rate=0.67, a11y_mixed_rate=0.15,
            low_native_a11y_site_rate=0.32,
            uninformative_rate=0.25,
            discard_mix=_mix(10.5, 2.2, 4.5, 3.0, 1.5, 1.2, 1.8, 1.0, 0.8, 1.2, 0.6),
            rank_log10_mean=4.2, rank_log10_std=0.45,
        ),
        CountryProfile(
            "gr", "el",
            visible_native_mean=0.84, visible_native_std=0.11,
            a11y_native_rate=0.20, a11y_english_rate=0.45, a11y_mixed_rate=0.35,
            low_native_a11y_site_rate=0.22,
            uninformative_rate=0.32,
            discard_mix=_mix(18.0, 2.5, 5.0, 3.5, 2.0, 1.5, 2.0, 1.2, 1.0, 1.5, 0.8),
            rank_log10_mean=4.2, rank_log10_std=0.45,
        ),
        CountryProfile(
            "hk", "yue",
            visible_native_mean=0.80, visible_native_std=0.13,
            a11y_native_rate=0.28, a11y_english_rate=0.42, a11y_mixed_rate=0.30,
            low_native_a11y_site_rate=0.27,
            uninformative_rate=0.27,
            discard_mix=_mix(13.0, 2.5, 5.0, 3.0, 2.0, 1.8, 3.8, 1.2, 1.0, 1.8, 1.0),
            rank_log10_mean=4.1, rank_log10_std=0.4,
        ),
        CountryProfile(
            "il", "he",
            visible_native_mean=0.86, visible_native_std=0.10,
            a11y_native_rate=0.52, a11y_english_rate=0.33, a11y_mixed_rate=0.15,
            low_native_a11y_site_rate=0.08,
            uninformative_rate=0.26,
            discard_mix=_mix(14.0, 4.03, 4.5, 3.0, 1.8, 1.2, 1.5, 1.0, 0.8, 1.2, 0.8),
            rank_log10_mean=4.1, rank_log10_std=0.4,
        ),
        CountryProfile(
            "in", "hi",
            visible_native_mean=0.78, visible_native_std=0.14,
            a11y_native_rate=0.15, a11y_english_rate=0.62, a11y_mixed_rate=0.23,
            low_native_a11y_site_rate=0.43,
            uninformative_rate=0.30,
            discard_mix=_mix(17.1, 3.6, 5.0, 3.5, 2.0, 1.5, 2.0, 1.2, 1.0, 1.5, 0.8),
            rank_log10_mean=5.0, rank_log10_std=0.6,
        ),
        CountryProfile(
            "jp", "ja",
            visible_native_mean=0.92, visible_native_std=0.07,
            a11y_native_rate=0.50, a11y_english_rate=0.27, a11y_mixed_rate=0.23,
            low_native_a11y_site_rate=0.07,
            uninformative_rate=0.25,
            discard_mix=_mix(12.0, 2.0, 5.0, 3.5, 2.0, 1.5, 2.0, 1.2, 1.0, 1.5, 1.0),
            rank_log10_mean=4.1, rank_log10_std=0.4,
        ),
        CountryProfile(
            "kr", "ko",
            visible_native_mean=0.90, visible_native_std=0.08,
            a11y_native_rate=0.42, a11y_english_rate=0.40, a11y_mixed_rate=0.18,
            low_native_a11y_site_rate=0.15,
            uninformative_rate=0.27,
            discard_mix=_mix(13.0, 2.5, 5.5, 3.0, 2.0, 1.8, 3.5, 1.2, 1.0, 1.8, 1.0),
            rank_log10_mean=4.1, rank_log10_std=0.4,
        ),
        CountryProfile(
            "ru", "ru",
            visible_native_mean=0.89, visible_native_std=0.09,
            a11y_native_rate=0.40, a11y_english_rate=0.38, a11y_mixed_rate=0.22,
            low_native_a11y_site_rate=0.18,
            uninformative_rate=0.33,
            discard_mix=_mix(22.2, 4.26, 5.0, 3.0, 2.0, 1.5, 3.17, 1.2, 1.0, 1.5, 0.8),
            rank_log10_mean=4.2, rank_log10_std=0.45,
        ),
        CountryProfile(
            "th", "th",
            visible_native_mean=0.87, visible_native_std=0.10,
            a11y_native_rate=0.16, a11y_english_rate=0.50, a11y_mixed_rate=0.34,
            low_native_a11y_site_rate=0.30,
            uninformative_rate=0.42,
            discard_mix=_mix(33.0, 4.24, 5.0, 3.5, 2.0, 1.5, 2.0, 1.2, 1.0, 1.5, 0.8),
            rank_log10_mean=4.1, rank_log10_std=0.4,
        ),
    )
}


def get_profile(country_code: str) -> CountryProfile:
    """Profile for ``country_code``; raises ``KeyError`` when unknown."""
    return COUNTRY_PROFILES[country_code]


def all_country_codes() -> tuple[str, ...]:
    """Country codes with profiles, in the paper's canonical order."""
    return tuple(pair.country_code for pair in LANGCRUX_PAIRS)
