"""Extracted-evidence records: schemas, calibration attachment, filtering.

A note (``NoteRecord``) is query-agnostic, a claim (``ClaimRecord``) is
query-conditioned and a ``Prediction`` is one calibration output. Each is
a JSON object whose keys are its dataclass's fields: required fields are
always written, optional fields only when set, in declaration order.
Unknown keys are ignored on read; a missing required field is a
ValidationError, or a ParseError with its line when it comes from a file.

Timestamps may arrive as a two-element [start, end] array of seconds or
as a span string like "10s-15s"; both normalize to (start, end) floats.

Calibration predictions attach to records by artifact id first, falling
back to exact (video_id, text) match; the original record is never
altered. The calibrated serialization nests the payload under its backend
label so several backends can coexist:

  {... record fields ..., "calibration": {"<backend>": {"prob": p,
      "raw": {"raw_output": "..."}}}}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Union

from .core import (
    DocId, QueryId, Source, _JSON_NUMBERS, _check_token, _expect, _json_float, _loads, from_json_object,
    json_record, load_records, to_json_object,
)
from .errors import AnswerTagError, ValidationError

MODALITIES = ("visual", "ocr", "audio")
CLAIM_SOURCES = ("video_visual", "video_text", "transcript")
DEFAULT_BACKEND = "unli"

_SPAN_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*s?\s*-\s*(\d+(?:\.\d+)?)\s*s?\s*$")
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)


def _normalize_timestamp(value, what: str) -> tuple[float, float]:
    if isinstance(value, str):
        match = _SPAN_RE.match(value)
        if not match:
            raise ValidationError(f"{what}: unparseable timestamp span {value!r}")
        start, end = float(match.group(1)), float(match.group(2))
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            start, end = _json_float(value[0]), _json_float(value[1])
        except (TypeError, OverflowError):
            raise ValidationError(f"{what}: timestamp entries must be numbers: {value!r}") from None
    else:
        raise ValidationError(f"{what}: timestamp must be [start, end] or a span string, got {value!r}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValidationError(f"{what}: timestamp bounds must be finite, got ({start}, {end})")
    if start < 0 or start > end:
        raise ValidationError(f"{what}: timestamp must satisfy 0 <= start <= end, got ({start}, {end})")
    return (start, end)


def _check_confidence(value, what: str, name: str = "confidence") -> float:
    """``value``, the field ``name`` of ``what``, as a float; it must be a JSON number in [0, 1]."""
    if type(value) not in _JSON_NUMBERS:
        raise ValidationError(f"{what}: {name} must be a number, got {value!r}")
    # compared before float(), which cannot hold an integer like 10**400
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what}: {name} {value} outside [0, 1]")
    return float(value)


@json_record
@dataclass(frozen=True, slots=True)
class NoteRecord:
    note_id: str
    video_id: DocId
    topic: str
    text: str
    modality: str
    timestamp: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.note_id:
            raise ValidationError("note_id must be non-empty")
        _check_token(self.video_id, "video_id")
        if not self.text:
            raise ValidationError(f"note {self.note_id}: text must be non-empty")
        if self.modality not in MODALITIES:
            raise ValidationError(
                f"note {self.note_id}: unknown modality {self.modality!r}; expected one of {MODALITIES}"
            )
        if self.timestamp is not None:
            object.__setattr__(
                self, "timestamp", _normalize_timestamp(self.timestamp, f"note {self.note_id}")
            )

    @property
    def artifact_id(self) -> str:
        return self.note_id

    @property
    def body_text(self) -> str:
        return self.text


@json_record
@dataclass(frozen=True, slots=True)
class ClaimRecord:
    claim_id: str
    query_id: QueryId
    video_id: DocId
    topic: str
    claim: str
    confidence: float | None = None
    evidence: str | None = None
    source: str | None = None
    timestamp: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.claim_id:
            raise ValidationError("claim_id must be non-empty")
        _check_token(self.query_id, "query_id")
        _check_token(self.video_id, "video_id")
        if not self.claim:
            raise ValidationError(f"claim {self.claim_id}: claim text must be non-empty")
        if self.confidence is not None:
            object.__setattr__(
                self, "confidence", _check_confidence(self.confidence, f"claim {self.claim_id}")
            )
        if self.source is not None and self.source not in CLAIM_SOURCES:
            raise ValidationError(
                f"claim {self.claim_id}: unknown source {self.source!r}; expected one of {CLAIM_SOURCES}"
            )
        if self.timestamp is not None:
            object.__setattr__(
                self, "timestamp", _normalize_timestamp(self.timestamp, f"claim {self.claim_id}")
            )

    @property
    def artifact_id(self) -> str:
        return self.claim_id

    @property
    def body_text(self) -> str:
        return self.claim


EvidenceRecord = Union[NoteRecord, ClaimRecord]


def validate(record: bytes | str | dict) -> EvidenceRecord:
    """Type and check one evidence record; accepts JSON bytes/text or a dict."""
    return _evidence_record(_loads(record))


def _evidence_record(record) -> EvidenceRecord:
    record = _expect(record, dict, "evidence record")
    if "note_id" in record:
        return from_json_object(NoteRecord, record)
    if "claim_id" in record:
        return from_json_object(ClaimRecord, record)
    raise ValidationError("record has neither 'note_id' nor 'claim_id'")


def record_to_dict(record: EvidenceRecord) -> dict:
    out = to_json_object(record)
    if record.timestamp is not None:
        out["timestamp"] = list(record.timestamp)
    return out


def serialize(record: EvidenceRecord) -> bytes:
    return json.dumps(record_to_dict(record), ensure_ascii=False).encode("utf-8")


def load_evidence(data: Source) -> list[EvidenceRecord]:
    """Parse a JSON-lines evidence file."""
    return load_records(data, _evidence_record)


def parse_answer_tag(text: str) -> float:
    """Extract the probability from the first ``<answer>...</answer>`` tag.

    Raises AnswerTagError with reason "missing", "non_numeric" or
    "out_of_range" so callers can choose the matching retry prompt.
    """
    match = _ANSWER_RE.search(text)
    if match is None:
        raise AnswerTagError("no <answer>...</answer> tag found", reason="missing")
    content = match.group(1).strip()
    try:
        value = float(content)
    except ValueError:
        raise AnswerTagError(
            f"answer tag content {content!r} is not a number", reason="non_numeric"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise AnswerTagError(f"answer value {value} outside [0, 1]", reason="out_of_range")
    return value


@json_record
@dataclass(frozen=True, slots=True)
class CalibrationPayload:
    prob: float
    backend: str = DEFAULT_BACKEND
    raw_output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "prob", _check_confidence(self.prob, "calibration", "prob"))
        if not self.backend:
            raise ValidationError("calibration backend label must be non-empty")


@dataclass(frozen=True, slots=True)
class CalibratedArtifact:
    """An evidence record plus its support probability; the record is untouched."""

    artifact: EvidenceRecord
    calibration: CalibrationPayload

    @property
    def prob(self) -> float:
        return self.calibration.prob


@json_record
@dataclass(frozen=True, slots=True)
class Prediction:
    """One calibration output to be joined onto an artifact.

    Keyed by ``artifact_id`` when present, else by (video_id, text).
    """

    prob: float
    backend: str = DEFAULT_BACKEND
    artifact_id: str | None = None
    video_id: str | None = None
    text: str | None = None
    raw_output: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "prob", _check_confidence(self.prob, "prediction", "prob"))
        if self.artifact_id is None and (self.video_id is None or self.text is None):
            raise ValidationError(
                "prediction needs an artifact_id or both video_id and text"
            )


def load_predictions(data: Source) -> list[Prediction]:
    """Parse a JSON-lines prediction file, one ``Prediction`` object per line."""
    return load_records(data, partial(from_json_object, Prediction))


@dataclass(frozen=True)
class AttachReport:
    """Artifacts left without a prediction, and predictions matching nothing."""

    unmatched_artifacts: tuple[EvidenceRecord, ...] = ()
    orphan_predictions: tuple[Prediction, ...] = ()


def attach(
    artifacts: Iterable[EvidenceRecord],
    predictions: Iterable[Prediction],
) -> tuple[list[CalibratedArtifact], AttachReport]:
    """Join predictions onto artifacts.

    Primary join by artifact id; when that fails the prediction falls back
    to an exact (video_id, whitespace-trimmed text) match, provided it is
    unambiguous. Two predictions resolving to one artifact is an error;
    predictions matching nothing are reported as orphans.
    """
    artifacts = list(artifacts)
    by_id: dict[str, EvidenceRecord] = {}
    by_key: dict[tuple[str, str], list[EvidenceRecord]] = {}
    for artifact in artifacts:
        if artifact.artifact_id in by_id:
            raise ValidationError(f"duplicate artifact id {artifact.artifact_id!r}")
        by_id[artifact.artifact_id] = artifact
        by_key.setdefault((artifact.video_id, artifact.body_text.strip()), []).append(artifact)

    assigned: dict[str, Prediction] = {}
    orphans: list[Prediction] = []
    for pred in predictions:
        target = None
        if pred.artifact_id is not None:
            target = by_id.get(pred.artifact_id)
        if target is None and pred.video_id is not None and pred.text is not None:
            candidates = by_key.get((pred.video_id, pred.text.strip()), [])
            if len(candidates) == 1:
                target = candidates[0]
        if target is None:
            orphans.append(pred)
            continue
        if target.artifact_id in assigned:
            raise ValidationError(
                f"two predictions claim artifact {target.artifact_id!r}"
            )
        assigned[target.artifact_id] = pred

    calibrated = []
    unmatched = []
    for artifact in artifacts:
        pred = assigned.get(artifact.artifact_id)
        if pred is None:
            unmatched.append(artifact)
            continue
        payload = CalibrationPayload(
            prob=pred.prob, backend=pred.backend, raw_output=pred.raw_output
        )
        calibrated.append(CalibratedArtifact(artifact=artifact, calibration=payload))
    return calibrated, AttachReport(
        unmatched_artifacts=tuple(unmatched), orphan_predictions=tuple(orphans)
    )


def filter_by_threshold(
    calibrated: Iterable[CalibratedArtifact], threshold: float
) -> tuple[list[CalibratedArtifact], list[CalibratedArtifact]]:
    """Split into (kept, dropped); prob >= threshold is kept (inclusive)."""
    _check_threshold(threshold)
    kept, dropped = [], []
    for item in calibrated:
        (kept if item.prob >= threshold else dropped).append(item)
    return kept, dropped


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")


def calibrated_to_dict(item: CalibratedArtifact) -> dict:
    payload: dict = {"prob": item.calibration.prob}
    if item.calibration.raw_output is not None:
        payload["raw"] = {"raw_output": item.calibration.raw_output}
    out = record_to_dict(item.artifact)
    out["calibration"] = {item.calibration.backend: payload}
    return out


def serialize_calibrated(item: CalibratedArtifact) -> bytes:
    return json.dumps(calibrated_to_dict(item), ensure_ascii=False).encode("utf-8")


def _calibrated_artifact(data, backend: str) -> CalibratedArtifact:
    data = _expect(data, dict, "calibrated record")
    calibration = _expect(data.get("calibration"), dict, "'calibration'")
    if backend not in calibration:
        raise ValidationError(
            f"no calibration payload for backend {backend!r}; present: {sorted(calibration)}"
        )
    payload = _expect(calibration[backend], dict, f"backend {backend!r} payload")
    raw = _expect(payload.get("raw", {}), dict, f"backend {backend!r} payload 'raw'")
    return CalibratedArtifact(
        artifact=_evidence_record(data),
        calibration=CalibrationPayload(
            prob=payload.get("prob"), backend=backend, raw_output=raw.get("raw_output")
        ),
    )


def load_calibrated(data: Source, backend: str = DEFAULT_BACKEND) -> list[CalibratedArtifact]:
    return load_records(data, lambda record: _calibrated_artifact(record, backend))
