"""JSON records keep one shape on the way out and on the way back in.

For evidence notes and claims, calibration predictions and memory-bank
fact entries: required fields are always written, optional fields only
when set, in the order of ``WIRE_ORDER``, which is each dataclass's
declaration order; reading what was written gives an equal record; an
unknown key is ignored on read; a missing required field, and a text
field holding anything but a string, is rejected with an error that names
it. Each property is checked through the public
API and through the two ``core`` helpers every record goes through. And
every JSON-lines writer writes one line per record, which the file reader
reads back equal, whatever line-end characters its texts hold.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import (
    ClaimRecord,
    FactEntry,
    MemoryBank,
    NoteRecord,
    ParseError,
    Prediction,
    ValidationError,
    validate,
)
from fusekit.core import SubQueryMap, from_json_object, parse_subquery_map, to_json_object, write_subquery_map
from fusekit.evidence import (
    CLAIM_SOURCES,
    MODALITIES,
    CalibratedArtifact,
    CalibrationPayload,
    load_calibrated,
    load_evidence,
    load_predictions,
    record_to_dict,
    serialize,
    serialize_calibrated,
)

from test_core import LINE_PIECES

WIRE_ORDER = {
    NoteRecord: ("note_id", "video_id", "topic", "text", "modality", "timestamp"),
    ClaimRecord: (
        "claim_id", "query_id", "video_id", "topic", "claim",
        "confidence", "evidence", "source", "timestamp",
    ),
    Prediction: ("prob", "backend", "artifact_id", "video_id", "text", "raw_output"),
    FactEntry: ("fact", "timestamp", "source_tool", "confidence"),
}

REQUIRED = {
    NoteRecord: ("note_id", "video_id", "topic", "text", "modality"),
    ClaimRecord: ("claim_id", "query_id", "video_id", "topic", "claim"),
    Prediction: ("prob",),
    FactEntry: ("fact",),
}

# the fields annotated ``str`` or ``str | None``, written out here independently of the annotations
TEXT_FIELDS = {
    NoteRecord: ("note_id", "video_id", "topic", "text", "modality"),
    ClaimRecord: ("claim_id", "query_id", "video_id", "topic", "claim", "evidence", "source"),
    Prediction: ("backend", "artifact_id", "video_id", "text", "raw_output"),
    FactEntry: ("fact", "timestamp", "source_tool"),
}

KNOWN_KEYS = {name for order in WIRE_ORDER.values() for name in order}

texts = st.text(max_size=8)
non_empty = st.text(min_size=1, max_size=8)
tokens = non_empty.filter(lambda s: s.split() == [s])
unit = st.floats(min_value=0.0, max_value=1.0)
spans = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=2).map(
    lambda pair: tuple(sorted(pair))
)

FIELDS = {
    NoteRecord: st.fixed_dictionaries({
        "note_id": non_empty,
        "video_id": tokens,
        "topic": texts,
        "text": non_empty,
        "modality": st.sampled_from(MODALITIES),
        "timestamp": st.none() | spans,
    }),
    ClaimRecord: st.fixed_dictionaries({
        "claim_id": non_empty,
        "query_id": tokens,
        "video_id": tokens,
        "topic": texts,
        "claim": non_empty,
        "confidence": st.none() | unit,
        "evidence": st.none() | texts,
        "source": st.none() | st.sampled_from(CLAIM_SOURCES),
        "timestamp": st.none() | spans,
    }),
    Prediction: st.fixed_dictionaries({
        "prob": unit,
        "backend": texts,
        "artifact_id": st.none() | non_empty,
        "video_id": st.none() | tokens,
        "text": st.none() | texts,
        "raw_output": st.none() | texts,
    }).filter(lambda f: f["artifact_id"] is not None or None not in (f["video_id"], f["text"])),
    FactEntry: st.fixed_dictionaries({
        "fact": non_empty,
        "timestamp": st.none() | texts,
        "source_tool": texts,
        "confidence": st.none() | unit,
    }),
}


def _json_form(cls, fields: dict) -> dict:
    """The documented JSON object for these field values."""
    out = {name: fields[name] for name in WIRE_ORDER[cls] if fields[name] is not None}
    if isinstance(out.get("timestamp"), tuple):
        out["timestamp"] = list(out["timestamp"])
    return out


def _read_fact(fact: dict) -> FactEntry:
    payload = json.loads(MemoryBank().dump())
    payload["fact_table"] = {"v1": [fact]}
    payload["videos"] = {"v1": {"status": "pending", "tools_used": []}}
    return MemoryBank.load(json.dumps(payload)).fact_table["v1"][0]


def _write_fact(entry: FactEntry) -> dict:
    bank = MemoryBank()
    bank.add_fact("v1", entry)
    return json.loads(bank.dump())["fact_table"]["v1"][0]


# (writer, builder, error the builder raises), through what the library's callers use;
# predictions have no writer of their own, so the core helper writes them
CODECS = {
    NoteRecord: (record_to_dict, validate, ValidationError),
    ClaimRecord: (record_to_dict, validate, ValidationError),
    Prediction: (to_json_object, lambda obj: load_predictions(json.dumps(obj))[0], ParseError),
    FactEntry: (_write_fact, _read_fact, ValidationError),
}

CLASSES = pytest.mark.parametrize("cls", list(WIRE_ORDER), ids=lambda cls: cls.__name__)


@CLASSES
def test_wire_order_is_the_declaration_order(cls):
    assert tuple(f.name for f in fields(cls)) == WIRE_ORDER[cls]


@CLASSES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_written_record_reads_back_equal_in_wire_order(cls, data):
    fields = data.draw(FIELDS[cls])
    record = cls(**fields)
    write, build, _ = CODECS[cls]
    expected = _json_form(cls, fields)
    written = write(record)
    assert list(written) == list(expected)
    assert written == expected
    assert build(expected) == record
    assert from_json_object(cls, to_json_object(record)) == record


@CLASSES
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_unknown_key_is_ignored(cls, data):
    fields = data.draw(FIELDS[cls])
    key = data.draw(non_empty.filter(lambda k: k not in KNOWN_KEYS))
    value = data.draw(st.none() | st.integers() | texts)
    _, build, _ = CODECS[cls]
    obj = {**_json_form(cls, fields), key: value}
    assert build(obj) == cls(**fields)
    assert from_json_object(cls, obj) == cls(**fields)


@CLASSES
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_missing_required_key_is_named(cls, data):
    obj = _json_form(cls, data.draw(FIELDS[cls]))
    key = data.draw(st.sampled_from(REQUIRED[cls]))
    del obj[key]
    _, build, error = CODECS[cls]
    with pytest.raises(error) as excinfo:
        build(obj)
    assert re.search(rf"\b{key}\b", str(excinfo.value))
    with pytest.raises(ValidationError, match=rf"missing required fields: .*\b{key}\b"):
        from_json_object(cls, obj)


@CLASSES
@pytest.mark.parametrize("obj", [[], "x", 1, None])
def test_non_object_is_rejected(cls, obj):
    with pytest.raises(ValidationError, match="must be a JSON object"):
        from_json_object(cls, obj)


@CLASSES
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_non_string_text_field_is_named(cls, data):
    fields = data.draw(FIELDS[cls])
    key = data.draw(st.sampled_from(TEXT_FIELDS[cls]))
    value = data.draw(st.integers() | st.booleans() | st.lists(texts, max_size=2) | st.dictionaries(texts, texts))
    obj = {**_json_form(cls, fields), key: value}
    _, build, error = CODECS[cls]
    with pytest.raises(error, match=rf"\b{key} must be a string, got "):
        build(obj)
    with pytest.raises(ValidationError, match=rf"^{key} must be a string, got "):
        cls(**{**fields, key: value})


# ---------------------------------------------------------------------------
# every JSON-lines writer: one record per line, read back whole by the file reader
# ---------------------------------------------------------------------------

# texts holding every character str.splitlines() ends a line at, which a writer must keep inside its record
line_texts = st.lists(st.sampled_from(LINE_PIECES), max_size=12).map(lambda pieces: "x" + "".join(pieces))


@settings(max_examples=100, deadline=None)
@given(topic=line_texts, body=line_texts, extra=line_texts)
def test_every_json_lines_writer_is_read_back_equal(topic, body, extra):
    records = [
        NoteRecord(note_id=body, video_id="v1", topic=topic, text=body, modality="ocr"),
        ClaimRecord(claim_id="c1", query_id="q1", video_id="v1", topic=topic, claim=body, evidence=extra),
    ]
    assert load_evidence(b"".join(serialize(r) + b"\n" for r in records)) == records
    calibrated = [CalibratedArtifact(r, CalibrationPayload(prob=0.5, raw_output=extra)) for r in records]
    assert load_calibrated(b"".join(serialize_calibrated(c) + b"\n" for c in calibrated)) == calibrated
    mapping = SubQueryMap({"q1": (("q1-s000", body), ("q1-s001", extra)), "q2": (("q2-s000", topic),)})
    assert parse_subquery_map(write_subquery_map(mapping)) == mapping
