"""Reference page generator: builds each page as a DOM tree, then serializes it.

The product generator (:class:`repro.webgen.pagegen.PageGenerator`) writes
markup strings directly.  This oracle keeps the generator it replaced: every
builder creates :class:`~repro.html.dom.Element` nodes, and the page is
serialized by :meth:`~repro.html.dom.Document.to_html`.  It inherits the
product's text helpers (accessibility text, lexicon choice, element counts),
so both draw from the RNG in the same order, and the parity suite asserts
the two produce the same bytes.  It is test-only and never imported from
``src/``.
"""

from __future__ import annotations

from repro.html.dom import Document, Element, new_document
from repro.webgen.pagegen import PageGenerator
from repro.webgen.profiles import ElementProfile


class DomPageGenerator(PageGenerator):
    """:class:`PageGenerator` with the DOM-building builders and entry points."""

    def _add_images(self, body: Element, profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            attrs = {"src": f"/media/img_{index}.jpg"}
            if text is not None:
                attrs["alt"] = text
            body.append(Element("img", attrs))

    def _add_buttons(self, body: Element, profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            button = Element("button", {"type": "button"})
            if text is not None:
                button.set("aria-label", text)
            if profile.visible_text_fallback and self.rng.random() < self.spec.fallback_text_rate:
                button.append_text(self._visible_lexicon().ui_term(self.rng))
            body.append(button)

    def _add_links(self, body: Element, profile: ElementProfile) -> None:
        nav = Element("nav")
        body.append(nav)
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            link = Element("a", {"href": f"/page/{index}"})
            if text is not None:
                link.set("aria-label", text)
            if profile.visible_text_fallback and self.rng.random() < self.spec.fallback_text_rate:
                link.append_text(self._visible_lexicon().ui_term(self.rng))
            nav.append(link)

    def _add_frames(self, body: Element, profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            attrs = {"src": f"https://embed.example.com/widget/{index}"}
            if text is not None:
                attrs["title"] = text
            body.append(Element("iframe", attrs))

    def _add_form(self, body: Element) -> None:
        """Build a form exercising label, select-name, input buttons and input images."""
        form = Element("form", {"action": "/submit", "method": "post"})
        body.append(form)

        label_profile = self.spec.element_profiles["label"]
        for index in range(self._count_for(label_profile)):
            field_id = f"field_{index}"
            text, _ = self._accessibility_text(label_profile)
            if text is not None:
                label = Element("label", {"for": field_id})
                label.append_text(text)
                form.append(label)
            form.append(Element("input", {"type": "text", "id": field_id, "name": field_id}))

        select_profile = self.spec.element_profiles["select-name"]
        for index in range(self._count_for(select_profile)):
            text, _ = self._accessibility_text(select_profile)
            select = Element("select", {"name": f"choice_{index}"})
            if text is not None:
                select.set("aria-label", text)
            for option_index in range(self.rng.randint(2, 5)):
                option = Element("option", {"value": str(option_index)})
                option.append_text(self._visible_lexicon().word(self.rng))
                select.append(option)
            form.append(select)

        input_button_profile = self.spec.element_profiles["input-button-name"]
        for _ in range(self._count_for(input_button_profile)):
            text, _ = self._accessibility_text(input_button_profile)
            attrs = {"type": "submit"}
            if text is not None:
                attrs["value"] = text
            form.append(Element("input", attrs))

        input_image_profile = self.spec.element_profiles["input-image-alt"]
        for index in range(self._count_for(input_image_profile)):
            text, _ = self._accessibility_text(input_image_profile)
            attrs = {"type": "image", "src": f"/media/button_{index}.png"}
            if text is not None:
                attrs["alt"] = text
            form.append(Element("input", attrs))

    def _add_objects(self, body: Element, profile: ElementProfile) -> None:
        for index in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            obj = Element("object", {"data": f"/media/doc_{index}.pdf", "type": "application/pdf"})
            if text is not None and text:
                obj.append_text(text)
            elif text == "":
                obj.append_text("")
            body.append(obj)

    def _add_summaries(self, body: Element, profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            details = Element("details")
            summary = Element("summary")
            text, _ = self._accessibility_text(profile)
            if text is not None:
                summary.set("aria-label", text)
            if profile.visible_text_fallback and self.rng.random() < self.spec.fallback_text_rate:
                summary.append_text(self._visible_lexicon().ui_term(self.rng))
            details.append(summary)
            paragraph = Element("p")
            paragraph.append_text(self._visible_lexicon().sentence(self.rng))
            details.append(paragraph)
            body.append(details)

    def _add_svgs(self, body: Element, profile: ElementProfile) -> None:
        for _ in range(self._count_for(profile)):
            text, _ = self._accessibility_text(profile)
            svg = Element("svg", {"role": "img", "viewbox": "0 0 24 24"})
            if text is not None:
                svg.set("aria-label", text)
            svg.append(Element("path", {"d": "M0 0h24v24H0z"}))
            body.append(svg)

    def _add_visible_content(self, body: Element) -> None:
        """Headings and paragraphs carrying the page's visible language mix."""
        heading = Element("h1")
        heading.append_text(self._visible_lexicon().phrase(self.rng))
        body.append(heading)
        for _ in range(self.rng.randint(4, 10)):
            section = Element("section")
            subheading = Element("h2")
            subheading.append_text(self._visible_lexicon().phrase(self.rng))
            section.append(subheading)
            for _ in range(self.rng.randint(1, 3)):
                paragraph = Element("p")
                paragraph.append_text(self._visible_lexicon().paragraph(self.rng))
                section.append(paragraph)
            body.append(section)

    # -- entry point -----------------------------------------------------------

    def generate_document(self, url: str | None = None) -> Document:
        """Build the page as a :class:`Document`, element by element."""
        title_profile = self.spec.element_profiles["document-title"]
        title_text, _ = self._accessibility_text(title_profile)
        document = new_document(lang=self.spec.declare_lang, url=url)
        if title_text:
            title_el = Element("title")
            title_el.append_text(title_text)
            head = document.head
            assert head is not None
            head.append(title_el)
        body = document.body
        assert body is not None

        self._add_visible_content(body)
        self._add_images(body, self.spec.element_profiles["image-alt"])
        self._add_buttons(body, self.spec.element_profiles["button-name"])
        self._add_links(body, self.spec.element_profiles["link-name"])
        self._add_frames(body, self.spec.element_profiles["frame-title"])
        self._add_form(body)
        self._add_objects(body, self.spec.element_profiles["object-alt"])
        self._add_summaries(body, self.spec.element_profiles["summary-name"])
        self._add_svgs(body, self.spec.element_profiles["svg-img-alt"])

        # No explicit invalidate_indexes() needed: the mutations above bump
        # the tree version, so document-level caches rebuild on next access.
        return document

    def generate_html(self, url: str | None = None) -> str:
        """Build the page and serialize it with :meth:`Document.to_html`."""
        return self.generate_document(url=url).to_html()
