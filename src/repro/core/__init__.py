"""The paper's contribution: LangCrUX construction, analysis and Kizuki.

Modules:

* :mod:`repro.core.elements` — the twelve language-sensitive accessibility
  elements (Table 1).
* :mod:`repro.core.extraction` — extraction of accessibility texts and
  visible text from crawled pages.
* :mod:`repro.core.filtering` — the eleven-category uninformative-text
  filter (Appendix H).
* :mod:`repro.core.language_mix` — native / English / mixed classification
  aggregates (Figures 2 and 4).
* :mod:`repro.core.selection` — language and country selection (Section 2).
* :mod:`repro.core.site_selection` — CrUX-driven website selection with the
  50% threshold and replacement.
* :mod:`repro.core.dataset` — the LangCrUX dataset model and persistence.
* :mod:`repro.core.analysis` — Table 2 statistics and the filtered-text
  breakdowns of Figures 3 and 9.
* :mod:`repro.core.mismatch` — visible-vs-accessibility mismatch metrics
  (Figures 5 and 8, the Section 3 headline numbers, Table 5 examples).
* :mod:`repro.core.kizuki` — the language-aware audit extension and the
  Figure 6 re-scoring.
* :mod:`repro.core.pipeline` — end-to-end orchestration (Figure 1).
* :mod:`repro.core.executor` — serial/process execution backends for the
  selection windows, with deterministic ordered merging.
"""

from repro.core.dataset import (
    LangCrUXDataset,
    SiteRecord,
    ElementObservation,
    StreamingDatasetWriter,
)
from repro.core.executor import (
    PipelineExecutor,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)
from repro.core.kizuki import Kizuki, KizukiConfig, KizukiImageAltRule
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig

__all__ = [
    "LangCrUXDataset",
    "SiteRecord",
    "ElementObservation",
    "StreamingDatasetWriter",
    "Kizuki",
    "KizukiConfig",
    "KizukiImageAltRule",
    "LangCrUXPipeline",
    "PipelineConfig",
    "PipelineExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "create_executor",
]
