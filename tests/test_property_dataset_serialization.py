"""``SiteRecord.to_dict`` against the ``dataclasses.asdict`` serializer it replaced.

``to_dict`` writes the record out by hand, so nothing ties it to the
dataclass fields any more.  These tests keep the old serializer as an
oracle: the JSON bytes must match it for any record, and the key order must
follow the field order of :class:`SiteRecord` and
:class:`ElementObservation`, so a field added without updating ``to_dict``
fails here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from hypothesis import given, strategies as st

from repro.core.dataset import ElementObservation, SiteRecord


def asdict_to_dict(record: SiteRecord) -> dict:
    """The serializer ``SiteRecord.to_dict`` used to be (the oracle)."""
    payload = asdict(record)
    payload["elements"] = {eid: asdict(obs) for eid, obs in record.elements.items()}
    return payload


def dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False)


SITE_FIELDS = [spec.name for spec in fields(SiteRecord)]
ELEMENT_FIELDS = [spec.name for spec in fields(ElementObservation)]

texts = st.text(max_size=20)
counts = st.integers(min_value=0, max_value=10**6)
shares = st.floats(min_value=0.0, max_value=1.0)
observations = st.builds(ElementObservation, element_id=texts, total=counts,
                         missing=counts, empty=counts,
                         texts=st.lists(texts, max_size=5))
audit_results = st.dictionaries(
    texts, st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False), texts),
    max_size=4)
records = st.builds(
    SiteRecord,
    domain=texts, country_code=texts, language_code=texts,
    rank=st.integers(min_value=0, max_value=10**9),
    visible_text_chars=counts,
    visible_native_share=shares, visible_english_share=shares,
    declared_lang=st.none() | texts, served_variant=st.none() | texts,
    elements=st.dictionaries(texts, observations, max_size=5),
    audit=st.dictionaries(texts, audit_results, max_size=5))


@given(records)
def test_json_bytes_match_the_asdict_oracle(record: SiteRecord) -> None:
    assert dumps(record.to_dict()) == dumps(asdict_to_dict(record))


@given(records)
def test_keys_follow_the_dataclass_field_order(record: SiteRecord) -> None:
    payload = record.to_dict()
    assert list(payload) == SITE_FIELDS
    for element in payload["elements"].values():
        assert list(element) == ELEMENT_FIELDS


@given(records)
def test_payload_shares_no_mutable_state_with_the_record(record: SiteRecord) -> None:
    before = dumps(record.to_dict())
    payload = record.to_dict()
    for element in payload["elements"].values():
        element["texts"].append("changed")
    for result in payload["audit"].values():
        result["changed"] = True
    assert dumps(record.to_dict()) == before


def test_pipeline_records_match_the_asdict_oracle(small_pipeline_result) -> None:
    records = list(small_pipeline_result.dataset)
    assert records
    for record in records:
        assert dumps(record.to_dict()) == dumps(asdict_to_dict(record))
