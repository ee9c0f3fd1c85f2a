"""Synthetic HTML page generation.

Given a per-site behaviour specification (language mix of visible content,
language mix of accessibility text, uninformative-text propensity), this
module writes a page's HTML directly: each builder appends escaped markup
fragments to one list, joined once per page, and no DOM is built on the way.
:meth:`PageGenerator.generate_document` parses that HTML when a caller wants
a :class:`~repro.html.dom.Document`.  A DOM-building reference generator in
the test suite pins the markup byte for byte.  The generated pages contain
all twelve language-sensitive element types studied by the paper so that
every audit rule and every extraction path is exercised.

The generator is intentionally noisy in the same ways real pages are noisy:
some images get ``alt=""``, some buttons rely on their visible text only,
some alt texts are file names or developer labels, a small number of alt
texts are absurdly long (the Table 4 outliers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.html.dom import Document, escape_attribute, escape_text
from repro.html.parser import parse_html
from repro.webgen import lexicon as lex
from repro.webgen.lexicon import ENGLISH, Lexicon, get_lexicon, mixed_phrase
from repro.webgen.profiles import ELEMENT_PROFILES, ElementProfile


@dataclass
class PageSpec:
    """Behaviour specification for generating one page.

    Attributes:
        language_code: The country's target language.
        visible_native_share: Target fraction of visible text in the native
            language; the rest is English.
        a11y_language_weights: Weights for the language of informative
            accessibility text: keys ``native``, ``english``, ``mixed``.
        uninformative_rate: Probability that a present, non-empty
            accessibility text is uninformative.
        discard_mix: Relative weights of uninformative categories.
        declare_lang: Whether the ``<html>`` element declares a ``lang``
            attribute, and which value (None = no attribute).
        extreme_alt_rate: Probability that an image alt text is an extreme
            outlier (> 1000 characters), reproducing Appendix E.
        element_density: Multiplier on per-page element counts (1.0 = profile
            defaults); lets site generators create small and large pages.
        fallback_text_rate: Probability that interactive elements (buttons,
            links, summaries) carry visible inner text.  Screen readers fall
            back to that text, which the paper identifies as the reason
            developers omit explicit metadata; the rate is site-level because
            templated sites are consistent about it.
    """

    language_code: str
    visible_native_share: float
    a11y_language_weights: Mapping[str, float]
    uninformative_rate: float
    discard_mix: Mapping[str, float]
    declare_lang: str | None = None
    extreme_alt_rate: float = 0.004
    element_density: float = 1.0
    fallback_text_rate: float = 0.9
    element_profiles: Mapping[str, ElementProfile] = field(default_factory=lambda: ELEMENT_PROFILES)


#: Elements whose informative short texts are legitimately UI terms
#: ("Login", "Send", "Submit") rather than descriptive phrases.
_INTERACTIVE_ELEMENTS = frozenset({
    "button-name", "input-button-name", "link-name", "summary-name",
    "select-name", "label",
})

#: Element-level modulation of the uninformative-category mix (Appendix G,
#: Figure 9): buttons and input buttons lean toward generic actions, labels
#: and selects toward single words, summaries toward both.
_ELEMENT_CATEGORY_BIAS: dict[str, dict[str, float]] = {
    "button-name": {"generic_action": 3.0, "single_word": 1.5},
    "input-button-name": {"generic_action": 3.0, "single_word": 1.5},
    "label": {"single_word": 2.5},
    "select-name": {"single_word": 2.0},
    "summary-name": {"generic_action": 4.0, "single_word": 4.0},
    "image-alt": {"file_name": 2.0, "url_or_path": 1.5, "placeholder": 1.5},
    "svg-img-alt": {"placeholder": 2.0, "dev_label": 2.0},
    "link-name": {"url_or_path": 2.0},
}


class PageGenerator:
    """Generates synthetic pages for one :class:`PageSpec`."""

    def __init__(self, spec: PageSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.native = get_lexicon(spec.language_code)
        self.english = ENGLISH

    # -- text helpers --------------------------------------------------------

    def _visible_lexicon(self) -> Lexicon:
        """Pick the lexicon for the next piece of visible text."""
        if self.rng.random() < self.spec.visible_native_share:
            return self.native
        return self.english

    def _native_text_preference(self) -> float:
        """Probability that a native word is used for generated junk labels.

        Sites that write their accessibility text in English also tend to use
        English placeholders and generic actions, so the preference follows
        the site's accessibility-language mix.
        """
        weights = self.spec.a11y_language_weights
        return min(0.6, weights.get("native", 0.0) + weights.get("mixed", 0.0))

    def _informative_text(self, element_id: str, words: int) -> str:
        """An informative accessibility text in the language drawn from the
        site's accessibility-language distribution."""
        weights = self.spec.a11y_language_weights
        choice = self._weighted_choice(
            ("native", "english", "mixed"),
            (weights.get("native", 0.0), weights.get("english", 0.0), weights.get("mixed", 0.0)),
        )
        if choice == "mixed":
            return mixed_phrase(self.rng, self.native, self.english)
        lexicon = self.native if choice == "native" else self.english
        words = max(1, words)
        if element_id in _INTERACTIVE_ELEMENTS and words <= 2 and lexicon.space_separated:
            return lexicon.ui_term(self.rng)
        if self.rng.random() < 0.4:
            return lexicon.phrase(self.rng)
        return lexicon.sentence(self.rng, min_words=max(1, words - 1), max_words=words + 2)

    def _uninformative_text(self, element_id: str) -> tuple[str, str]:
        """An uninformative accessibility text and its discard category."""
        weights = dict(self.spec.discard_mix)
        for category, factor in _ELEMENT_CATEGORY_BIAS.get(element_id, {}).items():
            if category in weights:
                weights[category] = weights[category] * factor
        categories = tuple(weights)
        category = self._weighted_choice(categories, tuple(weights[c] for c in categories))
        return self._text_for_category(category), category

    def _text_for_category(self, category: str) -> str:
        rng = self.rng
        native_preference = self._native_text_preference()
        if category == "single_word":
            # A lone generic word.  For languages written without inter-word
            # spaces a "single word" is modelled with an English word, since
            # short native runs are handled by the too-short category.
            if rng.random() < native_preference and self.native.space_separated:
                return rng.choice(self.native.words)
            return rng.choice(self.english.words)
        if category == "too_short":
            return rng.choice(lex.TOO_SHORT_LABELS)
        if category == "generic_action":
            use_native = rng.random() < native_preference and self.native.generic_actions
            source = self.native if use_native else self.english
            return rng.choice(source.generic_actions)
        if category == "placeholder":
            use_native = rng.random() < native_preference and self.native.placeholders
            source = self.native if use_native else self.english
            return rng.choice(source.placeholders)
        if category == "dev_label":
            return rng.choice(lex.DEV_LABELS)
        if category == "file_name":
            return rng.choice(lex.FILE_NAME_LABELS)
        if category == "url_or_path":
            return rng.choice(lex.URL_PATH_LABELS)
        if category == "label_number_pattern":
            return rng.choice(lex.LABEL_NUMBER_LABELS)
        if category == "ordinal_phrase":
            return rng.choice(lex.ORDINAL_PHRASE_LABELS)
        if category == "mixed_alnum":
            return rng.choice(lex.MIXED_ALNUM_LABELS)
        if category == "emoji":
            return rng.choice(lex.EMOJI_LABELS)
        raise ValueError(f"unknown discard category {category!r}")

    def _weighted_choice(self, options: tuple[str, ...], weights: tuple[float, ...]) -> str:
        total = sum(weights)
        if total <= 0:
            return options[0]
        return self.rng.choices(options, weights=weights, k=1)[0]

    def _accessibility_text(self, profile: ElementProfile) -> tuple[str | None, str | None]:
        """Draw the accessibility text for one element instance.

        Returns ``(text, discard_category)`` where ``text`` is ``None`` when
        the attribute should be missing, ``""`` when present-but-empty, and a
        string otherwise.  ``discard_category`` is set only for uninformative
        texts.
        """
        roll = self.rng.random()
        if roll < profile.missing_rate:
            return None, None
        if roll < profile.missing_rate + profile.empty_rate:
            return "", None
        if profile.element_id == "image-alt" and self.rng.random() < self.spec.extreme_alt_rate:
            # Appendix E: very long alt text, e.g. a whole article pasted in.
            return self._extreme_alt_text(), None
        if self.rng.random() < self.spec.uninformative_rate:
            return self._uninformative_text(profile.element_id)
        words = max(1, round(self.rng.gauss(profile.mean_words, profile.std_words)))
        return self._informative_text(profile.element_id, words), None

    def _extreme_alt_text(self) -> str:
        paragraphs = [self.native.paragraph(self.rng, 4, 8) for _ in range(3)]
        paragraphs.append(self.english.paragraph(self.rng, 4, 8))
        text = " ".join(paragraphs)
        while len(text) < 1200:
            text += " " + self.native.paragraph(self.rng, 4, 8)
        return text

    # -- element builders ------------------------------------------------------
    #
    # Each builder appends escaped markup fragments to ``out`` in document
    # order, drawing from the RNG in exactly the order the fragments appear.

    def _count_for(self, profile: ElementProfile) -> int:
        low = profile.min_per_page
        high = max(low, round(profile.max_per_page * self.spec.element_density))
        return self.rng.randint(low, high)

    def _fallback_text(self, profile: ElementProfile) -> str:
        """Escaped visible inner text of an interactive element, or ``""``."""
        if profile.visible_text_fallback and self.rng.random() < self.spec.fallback_text_rate:
            return escape_text(self._visible_lexicon().ui_term(self.rng))
        return ""

    def _add_images(self, out: list[str], profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<img src="/media/img_{index}.jpg"{_attribute("alt", text)}>')

    def _add_buttons(self, out: list[str], profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<button type="button"{_attribute("aria-label", text)}>'
                       f'{self._fallback_text(profile)}</button>')

    def _add_links(self, out: list[str], profile: ElementProfile) -> None:
        out.append("<nav>")
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<a href="/page/{index}"{_attribute("aria-label", text)}>'
                       f'{self._fallback_text(profile)}</a>')
        out.append("</nav>")

    def _add_frames(self, out: list[str], profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<iframe src="https://embed.example.com/widget/{index}"'
                       f'{_attribute("title", text)}></iframe>')

    def _add_form(self, out: list[str]) -> None:
        """Build a form exercising label, select-name, input buttons and input images."""
        out.append('<form action="/submit" method="post">')

        label_profile = self.spec.element_profiles["label"]
        for index in range(self._count_for(label_profile)):
            field_id = f"field_{index}"
            text, _ = self._accessibility_text(label_profile)
            if text is not None:
                out.append(f'<label for="{field_id}">{escape_text(text)}</label>')
            out.append(f'<input type="text" id="{field_id}" name="{field_id}">')

        select_profile = self.spec.element_profiles["select-name"]
        for index in range(self._count_for(select_profile)):
            text, _ = self._accessibility_text(select_profile)
            out.append(f'<select name="choice_{index}"{_attribute("aria-label", text)}>')
            for option_index in range(self.rng.randint(2, 5)):
                word = escape_text(self._visible_lexicon().word(self.rng))
                out.append(f'<option value="{option_index}">{word}</option>')
            out.append("</select>")

        input_button_profile = self.spec.element_profiles["input-button-name"]
        for _ in range(self._count_for(input_button_profile)):
            text, _ = self._accessibility_text(input_button_profile)
            out.append(f'<input type="submit"{_attribute("value", text)}>')

        input_image_profile = self.spec.element_profiles["input-image-alt"]
        for index in range(self._count_for(input_image_profile)):
            text, _ = self._accessibility_text(input_image_profile)
            out.append(f'<input type="image" src="/media/button_{index}.png"'
                       f'{_attribute("alt", text)}>')
        out.append("</form>")

    def _add_objects(self, out: list[str], profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<object data="/media/doc_{index}.pdf" type="application/pdf">'
                       f'{escape_text(text) if text else ""}</object>')

    def _add_summaries(self, out: list[str], profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            summary = (f'<details><summary{_attribute("aria-label", text)}>'
                       f'{self._fallback_text(profile)}</summary>')
            sentence = escape_text(self._visible_lexicon().sentence(self.rng))
            out.append(f"{summary}<p>{sentence}</p></details>")

    def _add_svgs(self, out: list[str], profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            out.append(f'<svg role="img" viewbox="0 0 24 24"{_attribute("aria-label", text)}>'
                       '<path d="M0 0h24v24H0z"></path></svg>')

    def _add_visible_content(self, out: list[str]) -> None:
        """Headings and paragraphs carrying the page's visible language mix."""
        rng = self.rng
        out.append(f"<h1>{escape_text(self._visible_lexicon().phrase(rng))}</h1>")
        for _ in range(rng.randint(4, 10)):
            out.append(f"<section><h2>{escape_text(self._visible_lexicon().phrase(rng))}</h2>")
            for _ in range(rng.randint(1, 3)):
                out.append(f"<p>{escape_text(self._visible_lexicon().paragraph(rng))}</p>")
            out.append("</section>")

    # -- entry points ----------------------------------------------------------

    def generate_html(self, url: str | None = None) -> str:
        """Generate a full page as HTML.

        ``url`` is accepted for symmetry with :meth:`generate_document`; the
        markup does not depend on it.
        """
        title_profile = self.spec.element_profiles["document-title"]
        title_text, _ = self._accessibility_text(title_profile)
        lang = self.spec.declare_lang
        out = [f'<!DOCTYPE html><html{_attribute("lang", lang or None)}><head>']
        if title_text:
            out.append(f"<title>{escape_text(title_text)}</title>")
        out.append("</head><body>")

        profiles = self.spec.element_profiles
        self._add_visible_content(out)
        self._add_images(out, profiles["image-alt"])
        self._add_buttons(out, profiles["button-name"])
        self._add_links(out, profiles["link-name"])
        self._add_frames(out, profiles["frame-title"])
        self._add_form(out)
        self._add_objects(out, profiles["object-alt"])
        self._add_summaries(out, profiles["summary-name"])
        self._add_svgs(out, profiles["svg-img-alt"])
        out.append("</body></html>")
        return "".join(out)

    def generate_document(self, url: str | None = None) -> Document:
        """Generate a full page and parse it into a :class:`Document`."""
        return parse_html(self.generate_html(url), url=url)


def _attribute(name: str, value: str | None) -> str:
    """`` name="value"`` with the value escaped, or ``""`` when it is absent."""
    if value is None:
        return ""
    return f' {name}="{escape_attribute(value)}"'
