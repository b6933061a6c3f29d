from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusekit import (
    AnswerTagError,
    CalibratedArtifact,
    CalibrationPayload,
    ClaimRecord,
    NoteRecord,
    ParseError,
    Prediction,
    ValidationError,
    attach,
    filter_by_threshold,
    parse_answer_tag,
    validate,
)
from fusekit.evidence import (
    calibrated_to_dict,
    load_calibrated,
    load_evidence,
    load_predictions,
    serialize,
    serialize_calibrated,
)

# The documented example records, field for field.
CLAIM_FIXTURE = {
    "claim_id": "qc-10-1978302738418032640-000",
    "query_id": "10",
    "video_id": "1978302738418032640",
    "topic": "2025_Alaska_Typhoon",
    "claim": "More than 50 people have been rescued in Western Alaska.",
    "confidence": 0.95,
    "evidence": "Text overlay in the video states 'More than 50 people have been rescued in Western Alaska.'",
    "source": "video_text",
    "timestamp": [0.0, 3.0],
}

NOTE_FIXTURE = {
    "note_id": "gn1a-hol6y3QwX2Y-000",
    "video_id": "hol6y3QwX2Y",
    "topic": "2025_Canadian_Federal_Election",
    "text": "A woman with short blonde hair and a beige jacket is speaking.",
    "modality": "visual",
    "timestamp": [0.0, 6.0],
}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_claim_fixture():
    record = validate(json.dumps(CLAIM_FIXTURE))
    assert isinstance(record, ClaimRecord)
    assert record.confidence == 0.95
    assert record.source == "video_text"
    assert record.timestamp == (0.0, 3.0)
    assert record.query_id == "10"


def test_validate_note_fixture():
    record = validate(json.dumps(NOTE_FIXTURE))
    assert isinstance(record, NoteRecord)
    assert record.modality == "visual"
    assert record.timestamp == (0.0, 6.0)


def test_note_without_timestamp_is_valid():
    data = {k: v for k, v in NOTE_FIXTURE.items() if k != "timestamp"}
    assert validate(data).timestamp is None


def test_confidence_out_of_range_rejected():
    with pytest.raises(ValidationError) as excinfo:
        validate({**CLAIM_FIXTURE, "confidence": 1.2})
    assert "confidence" in str(excinfo.value)


def test_confidence_beyond_the_float_range_rejected():
    # json.loads reads a long integer literal as an int, which float() cannot convert
    with pytest.raises(ValidationError, match="confidence"):
        validate(json.dumps({**CLAIM_FIXTURE, "confidence": 10**400}))


@pytest.mark.parametrize("fixture", [NOTE_FIXTURE, CLAIM_FIXTURE], ids=["note", "claim"])
def test_timestamp_beyond_the_float_range_rejected(fixture):
    with pytest.raises(ValidationError, match="timestamp"):
        validate(json.dumps({**fixture, "timestamp": [0, 10**400]}))


def test_prediction_prob_beyond_the_float_range_rejected():
    with pytest.raises(ParseError, match="confidence"):
        load_predictions(json.dumps({"prob": 10**400, "artifact_id": "a"}))


@pytest.mark.parametrize("confidence", [True, False, "0.5"])
def test_confidence_must_be_a_json_number(confidence):
    with pytest.raises(ValidationError, match="confidence must be a number"):
        validate({**CLAIM_FIXTURE, "confidence": confidence})


@pytest.mark.parametrize("prob", [True, "0.5"])
def test_prediction_prob_must_be_a_json_number(prob):
    with pytest.raises(ParseError, match="line 1: prediction: confidence must be a number"):
        load_predictions(json.dumps({"prob": prob, "artifact_id": "a"}))


@pytest.mark.parametrize("timestamp", [[True, "3"], [0, "3"], [False, 1]])
@pytest.mark.parametrize("fixture", [NOTE_FIXTURE, CLAIM_FIXTURE], ids=["note", "claim"])
def test_timestamp_entries_must_be_json_numbers(fixture, timestamp):
    with pytest.raises(ValidationError, match="timestamp entries must be numbers"):
        validate({**fixture, "timestamp": timestamp})


def test_integer_confidence_and_timestamp_are_written_as_floats():
    record = validate({**CLAIM_FIXTURE, "confidence": 1, "timestamp": [0, 3]})
    assert (record.confidence, record.timestamp) == (1.0, (0.0, 3.0))
    assert b'"confidence": 1.0' in serialize(record)


def test_unknown_modality_rejected():
    with pytest.raises(ValidationError) as excinfo:
        validate({**NOTE_FIXTURE, "modality": "smell"})
    assert "modality" in str(excinfo.value)


def test_unknown_source_rejected():
    with pytest.raises(ValidationError) as excinfo:
        validate({**CLAIM_FIXTURE, "source": "wikipedia"})
    assert "source" in str(excinfo.value)


def test_inverted_timestamp_rejected():
    with pytest.raises(ValidationError) as excinfo:
        validate({**NOTE_FIXTURE, "timestamp": [6.0, 2.0]})
    assert "timestamp" in str(excinfo.value)


def test_negative_timestamp_rejected():
    with pytest.raises(ValidationError):
        validate({**NOTE_FIXTURE, "timestamp": [-1.0, 2.0]})


@pytest.mark.parametrize(
    "timestamp",
    [[float("nan"), float("nan")], [0.0, float("inf")], [float("-inf"), 1.0], "0s-" + "9" * 400 + "s"],
    ids=["nan", "inf-end", "-inf-start", "span-beyond-float-range"],
)
@pytest.mark.parametrize("fixture", [NOTE_FIXTURE, CLAIM_FIXTURE], ids=["note", "claim"])
def test_non_finite_timestamp_rejected(fixture, timestamp):
    with pytest.raises(ValidationError, match="finite"):
        validate({**fixture, "timestamp": timestamp})


def test_non_finite_timestamp_rejected_in_json_text():
    # json.loads accepts the bare NaN/Infinity tokens, which json.dumps would write back
    line = json.dumps({**NOTE_FIXTURE, "timestamp": [0.0, float("inf")]})
    assert "Infinity" in line
    with pytest.raises(ValidationError, match="finite"):
        validate(line)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("note", "topic", 5),
        ("note", "topic", None),
        ("note", "note_id", 7),
        ("note", "note_id", ""),
        ("note", "note_id", ["n1"]),
        ("claim", "topic", 5),
        ("claim", "topic", {"t": 1}),
        ("claim", "claim_id", 7),
        ("claim", "claim_id", ""),
        ("claim", "evidence", 3),
        ("claim", "evidence", ["overlay"]),
    ],
)
def test_text_fields_must_be_strings(kind, key, value):
    fixture = {"note": NOTE_FIXTURE, "claim": CLAIM_FIXTURE}[kind]
    with pytest.raises(ValidationError, match=key):
        validate({**fixture, key: value})


def test_empty_topic_and_unset_evidence_are_valid():
    assert validate({**NOTE_FIXTURE, "topic": ""}).topic == ""
    claim = {k: v for k, v in CLAIM_FIXTURE.items() if k != "evidence"}
    assert validate(claim).evidence is None


def test_missing_required_field_rejected():
    data = {k: v for k, v in CLAIM_FIXTURE.items() if k != "query_id"}
    with pytest.raises(ValidationError) as excinfo:
        validate(data)
    assert "query_id" in str(excinfo.value)


def test_record_without_any_id_rejected():
    with pytest.raises(ValidationError):
        validate({"video_id": "v1", "text": "x"})


def test_empty_text_rejected():
    with pytest.raises(ValidationError):
        validate({**NOTE_FIXTURE, "text": ""})


@pytest.mark.parametrize(
    "span,expected",
    [("10s-15s", (10.0, 15.0)), ("8-15s", (8.0, 15.0)), ("0.5s-2.25s", (0.5, 2.25))],
)
def test_span_string_timestamps(span, expected):
    record = validate({**NOTE_FIXTURE, "timestamp": span})
    assert record.timestamp == expected


def test_unparseable_span_rejected():
    with pytest.raises(ValidationError):
        validate({**NOTE_FIXTURE, "timestamp": "around the middle"})


def test_load_evidence_reports_line_numbers():
    lines = json.dumps(NOTE_FIXTURE) + "\n" + json.dumps({**NOTE_FIXTURE, "modality": "x"}) + "\n"
    with pytest.raises(ParseError) as excinfo:
        load_evidence(lines)
    assert excinfo.value.line == 2


# ---------------------------------------------------------------------------
# serialize round-trip
# ---------------------------------------------------------------------------


def test_validate_serialize_identity_on_fixtures():
    for fixture in (CLAIM_FIXTURE, NOTE_FIXTURE):
        record = validate(dict(fixture))
        assert validate(serialize(record)) == record


token = st.from_regex(r"[A-Za-z0-9_\-]{1,12}", fullmatch=True)
free_text = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())
maybe_ts = st.one_of(
    st.none(),
    st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)).map(
        lambda t: (min(t), max(t))
    ),
)


@settings(max_examples=120)
@given(
    kind=st.sampled_from(["note", "claim"]),
    ident=token,
    vid=token,
    topic=free_text,
    body=free_text,
    modality=st.sampled_from(["visual", "ocr", "audio"]),
    source=st.one_of(st.none(), st.sampled_from(["video_visual", "video_text", "transcript"])),
    confidence=st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
    ts=maybe_ts,
)
def test_validate_serialize_identity_random(kind, ident, vid, topic, body, modality, source, confidence, ts):
    if kind == "note":
        record = NoteRecord(
            note_id=ident, video_id=vid, topic=topic, text=body, modality=modality, timestamp=ts
        )
    else:
        record = ClaimRecord(
            claim_id=ident,
            query_id="q1",
            video_id=vid,
            topic=topic,
            claim=body,
            confidence=confidence,
            source=source,
            timestamp=ts,
        )
    assert validate(serialize(record)) == record


# ---------------------------------------------------------------------------
# answer tags
# ---------------------------------------------------------------------------


def test_answer_tag_documented_value():
    assert parse_answer_tag("<answer>0.95</answer>") == 0.95


def test_answer_tag_boundary_zero():
    assert parse_answer_tag("<answer>0</answer>") == 0.0


def test_answer_tag_with_padding_and_prose():
    assert parse_answer_tag("thinking... <answer> 0.73 </answer> done") == 0.73


def test_answer_tag_takes_first_tag():
    assert parse_answer_tag("<answer>0.2</answer><answer>0.9</answer>") == 0.2


def test_answer_tag_missing():
    with pytest.raises(AnswerTagError) as excinfo:
        parse_answer_tag("score: 0.7")
    assert excinfo.value.reason == "missing"


def test_answer_tag_non_numeric():
    with pytest.raises(AnswerTagError) as excinfo:
        parse_answer_tag("<answer>high</answer>")
    assert excinfo.value.reason == "non_numeric"


def test_answer_tag_out_of_range_is_error_not_clamp():
    with pytest.raises(AnswerTagError) as excinfo:
        parse_answer_tag("<answer>1.7</answer>")
    assert excinfo.value.reason == "out_of_range"


# ---------------------------------------------------------------------------
# attach
# ---------------------------------------------------------------------------


def _claim(cid: str, vid: str = "v1", text: str = "water is rising") -> ClaimRecord:
    return ClaimRecord(claim_id=cid, query_id="q1", video_id=vid, topic="t", claim=text)


def test_attach_by_id():
    artifact = _claim("c1")
    calibrated, report = attach([artifact], [Prediction(prob=0.8, artifact_id="c1")])
    assert len(calibrated) == 1
    assert calibrated[0].prob == 0.8
    assert calibrated[0].artifact == artifact
    assert not report.unmatched_artifacts
    assert not report.orphan_predictions


def test_attach_fallback_on_video_and_text():
    artifact = _claim("c1", vid="v9", text="bridge closed")
    pred = Prediction(prob=0.6, artifact_id="stale-id", video_id="v9", text="  bridge closed  ")
    calibrated, report = attach([artifact], [pred])
    assert len(calibrated) == 1
    assert calibrated[0].prob == 0.6
    assert not report.orphan_predictions


def test_attach_orphan_prediction_is_not_an_error():
    calibrated, report = attach([_claim("c1")], [Prediction(prob=0.5, artifact_id="nope")])
    assert calibrated == []
    assert len(report.orphan_predictions) == 1
    assert len(report.unmatched_artifacts) == 1


def test_attach_conflicting_predictions_error():
    preds = [Prediction(prob=0.5, artifact_id="c1"), Prediction(prob=0.6, artifact_id="c1")]
    with pytest.raises(ValidationError) as excinfo:
        attach([_claim("c1")], preds)
    assert "c1" in str(excinfo.value)


def test_attach_conflict_via_fallback_also_detected():
    artifact = _claim("c1", vid="v1", text="road flooded")
    preds = [
        Prediction(prob=0.5, artifact_id="c1"),
        Prediction(prob=0.6, video_id="v1", text="road flooded"),
    ]
    with pytest.raises(ValidationError):
        attach([artifact], preds)


def test_attach_id_wins_over_fallback():
    # the prediction's id resolves, so its (video_id, text) pointing at a
    # different artifact must be ignored
    a = _claim("c1", vid="v1", text="alpha")
    b = _claim("c2", vid="v2", text="beta")
    pred = Prediction(prob=0.9, artifact_id="c1", video_id="v2", text="beta")
    calibrated, _ = attach([a, b], [pred])
    assert [c.artifact.claim_id for c in calibrated] == ["c1"]


def test_attach_ambiguous_fallback_is_orphan():
    a = _claim("c1", vid="v1", text="same words")
    b = _claim("c2", vid="v1", text="same words")
    calibrated, report = attach([a, b], [Prediction(prob=0.7, video_id="v1", text="same words")])
    assert calibrated == []
    assert len(report.orphan_predictions) == 1


def test_attach_never_mutates_artifacts():
    artifact = _claim("c1")
    before = serialize(artifact)
    calibrated, _ = attach([artifact], [Prediction(prob=0.8, artifact_id="c1")])
    assert serialize(calibrated[0].artifact) == before


def test_attach_duplicate_artifact_ids_rejected():
    with pytest.raises(ValidationError):
        attach([_claim("c1"), _claim("c1")], [])


def test_load_predictions_requires_key():
    with pytest.raises(Exception):
        load_predictions(json.dumps({"prob": 0.5}))
    preds = load_predictions(json.dumps({"prob": 0.5, "artifact_id": "a"}))
    assert preds[0].backend == "unli"


@pytest.mark.parametrize(
    "key, value",
    [("text", 5), ("video_id", ["v1"]), ("artifact_id", 3), ("backend", 5), ("raw_output", 7)],
)
def test_load_predictions_rejects_non_string_text_fields(key, value):
    prediction = {"prob": 0.5, "artifact_id": "a", "video_id": "v1", "text": "t", key: value}
    with pytest.raises(ParseError, match=f"line 1: {key} must be a string"):
        load_predictions(json.dumps(prediction))


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def _calibrated(prob: float, cid: str = "c1") -> CalibratedArtifact:
    return CalibratedArtifact(artifact=_claim(cid), calibration=CalibrationPayload(prob=prob))


def test_filter_documented_threshold_keeps_example():
    kept, dropped = filter_by_threshold([_calibrated(0.95)], 0.5)
    assert len(kept) == 1 and not dropped


def test_filter_boundary_is_inclusive():
    kept, dropped = filter_by_threshold([_calibrated(0.5)], 0.5)
    assert len(kept) == 1 and not dropped


def test_filter_threshold_zero_keeps_everything():
    items = [_calibrated(p, cid=f"c{i}") for i, p in enumerate([0.0, 0.3, 1.0])]
    kept, dropped = filter_by_threshold(items, 0.0)
    assert len(kept) == 3 and not dropped


def test_filter_partitions_input():
    rng = random.Random(3)
    items = [_calibrated(rng.random(), cid=f"c{i}") for i in range(50)]
    kept, dropped = filter_by_threshold(items, 0.4)
    assert len(kept) + len(dropped) == 50
    assert all(c.prob >= 0.4 for c in kept)
    assert all(c.prob < 0.4 for c in dropped)


def test_filter_monotone_in_threshold():
    rng = random.Random(4)
    items = [_calibrated(rng.random(), cid=f"c{i}") for i in range(80)]
    t1, t2 = sorted((rng.random(), rng.random()))
    kept1, _ = filter_by_threshold(items, t1)
    kept2, _ = filter_by_threshold(items, t2)
    ids1 = {c.artifact.claim_id for c in kept1}
    ids2 = {c.artifact.claim_id for c in kept2}
    assert ids2 <= ids1


def test_filter_rejects_bad_threshold():
    with pytest.raises(ValueError):
        filter_by_threshold([], 1.5)


# ---------------------------------------------------------------------------
# calibrated serialization (backend nesting)
# ---------------------------------------------------------------------------


def test_calibrated_serialization_nests_backend():
    artifact = validate(dict(CLAIM_FIXTURE))
    item = CalibratedArtifact(
        artifact=artifact,
        calibration=CalibrationPayload(prob=0.95, backend="unli", raw_output="<answer>0.95</answer>"),
    )
    data = calibrated_to_dict(item)
    assert data["calibration"] == {
        "unli": {"prob": 0.95, "raw": {"raw_output": "<answer>0.95</answer>"}}
    }
    assert data["claim_id"] == CLAIM_FIXTURE["claim_id"]
    assert load_calibrated(serialize_calibrated(item))[0] == item


def test_parse_calibrated_unknown_backend_errors():
    artifact = validate(dict(CLAIM_FIXTURE))
    item = CalibratedArtifact(artifact=artifact, calibration=CalibrationPayload(prob=0.4))
    with pytest.raises(ParseError, match="line 1: no calibration payload for backend 'other'"):
        load_calibrated(serialize_calibrated(item), backend="other")


@pytest.mark.parametrize(
    "raw, message",
    [({"raw_output": 7}, "raw_output must be a string"), ("oops", "'raw' must be a JSON object"),
     (None, "'raw' must be a JSON object")],
    ids=["raw_output-number", "raw-string", "raw-null"],
)
def test_parse_calibrated_rejects_a_malformed_raw_payload(raw, message):
    data = calibrated_to_dict(_calibrated(0.5))
    data["calibration"]["unli"]["raw"] = raw
    with pytest.raises(ParseError, match=f"line 1: .*{message}"):
        load_calibrated(json.dumps(data))


def test_load_calibrated_round_trip():
    items = [
        CalibratedArtifact(
            artifact=_claim(f"c{i}"), calibration=CalibrationPayload(prob=i / 10)
        )
        for i in range(5)
    ]
    data = "".join(serialize_calibrated(c).decode() + "\n" for c in items)
    assert load_calibrated(data) == items
