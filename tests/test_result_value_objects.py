"""The per-element result objects of extraction and audit are plain values.

``ElementOutcome``, ``RuleResult``, ``ExtractedText`` and
``AccessibleNameResult`` are slotted dataclasses: built tens of thousands of
times per build, they skip the per-field ``object.__setattr__`` of a frozen
dataclass.  They must still compare by value and survive the pickle round
trip that carries them out of pool workers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.audit.report import ElementOutcome, RuleResult
from repro.core.extraction import ExtractedText
from repro.html.accessibility import AccessibleNameResult, NameSource

OUTCOMES = (ElementOutcome("img", "a cat", True, "ok"),
            ElementOutcome("img", None, False, "missing"))

VALUES = [
    OUTCOMES[0],
    RuleResult("image-alt", True, False, 0.5, OUTCOMES),
    RuleResult("frame-title", False, True, 1.0),
    ExtractedText("img-alt", "a cat"),
    ExtractedText("button", None),
    AccessibleNameResult("Search", NameSource.ARIA_LABEL),
]


def _copy(value):
    """A field-by-field equal, distinct instance of ``value``."""
    cls = type(value)
    return cls(*(getattr(value, name) for name in cls.__slots__))


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
class TestValueSemantics:
    def test_equal_by_value(self, value) -> None:
        twin = _copy(value)
        assert twin is not value and twin == value

    def test_pickle_round_trip_is_equal(self, value) -> None:
        assert pickle.loads(pickle.dumps(value)) == value

    def test_slotted(self, value) -> None:
        assert not hasattr(value, "__dict__")


def test_different_fields_compare_unequal() -> None:
    assert OUTCOMES[0] != OUTCOMES[1]
    assert ExtractedText("img-alt", "") != ExtractedText("img-alt", None)
    assert (RuleResult("image-alt", True, True, 1.0, OUTCOMES[:1])
            != RuleResult("image-alt", True, True, 1.0))


@pytest.mark.parametrize("source", list(NameSource))
def test_explicit_matches_tuple_membership(source: NameSource) -> None:
    explicit = source in (NameSource.ARIA_LABELLEDBY, NameSource.ARIA_LABEL,
                          NameSource.NATIVE_MARKUP)
    assert AccessibleNameResult("name", source).explicit is explicit
