"""LangCrUX + Kizuki reproduction library.

This package reproduces the measurement pipeline of *"Not All Visitors are
Bilingual: A Measurement Study of the Multilingual Web from an Accessibility
Perspective"* (IMC 2025).  It contains:

``repro.langid``
    Unicode-script and n-gram based language identification, the paper's
    primary language-detection mechanism.
``repro.html``
    An HTML parser, DOM model, visible-text extraction and accessible-name
    computation that stand in for the Puppeteer/Chromium rendering step.
``repro.webgen``
    A deterministic synthetic multilingual web: per-country site generators,
    a CrUX-style ranking table and geo-aware origin servers.  This substitutes
    for the live web, which is unavailable in the reproduction environment.
``repro.crawler``
    The crawling substrate: simulated and real HTTP, VPN vantage points,
    robots handling and the LangCrUX crawler itself.
``repro.audit``
    A Lighthouse/Axe-core style accessibility audit engine implementing the
    twelve language-sensitive rules and Lighthouse-like weighted scoring.
``repro.core``
    The paper's contribution: LangCrUX dataset construction, accessibility
    text extraction and filtering, language-mix and mismatch analyses, and
    the Kizuki language-aware audit extension.
``repro.stats``
    Small statistics helpers (summaries, CDFs, histograms) shared by the
    analyses and benchmark harnesses.

The top-level namespace re-exports the most frequently used entry points so
that ``import repro`` is enough for the common workflows shown in
``examples/``.
"""

from __future__ import annotations

from repro.core.dataset import LangCrUXDataset, SiteRecord
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from repro.core.kizuki import Kizuki, KizukiConfig
from repro.langid.detector import ScriptDetector, detect_language_mix
from repro.langid.classify import TextLanguageClass, classify_text_language

__all__ = [
    "LangCrUXDataset",
    "SiteRecord",
    "LangCrUXPipeline",
    "PipelineConfig",
    "Kizuki",
    "KizukiConfig",
    "ScriptDetector",
    "detect_language_mix",
    "TextLanguageClass",
    "classify_text_language",
    "__version__",
]

__version__ = "1.0.0"
