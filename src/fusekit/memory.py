"""Five-slot structured memory for an iterative controller.

The bank persists as one JSON object with exactly these slots:

  {
    "findings":       ["high-level insight", ...],
    "keywords":       {"<video_id>": ["keyword", ...]},
    "fact_table":     {"<video_id>": [{"fact": ..., "timestamp": ...,
                                       "source_tool": ..., "confidence": ...}]},
    "selected_facts": ["fact text", ...],
    "videos":         {"<video_id>": {"status": ..., "tools_used": [...],
                                      "path": ..., "caption": ...}}
  }

Facts are addressed by (video_id, 0-based index); a flat enumeration in
video-id-ascending order reproduces the F#0, F#1 numbering used when
facts are reviewed externally. Keyword lookups are case-insensitive and
fact-text search is substring-based. Each operator touches only its
documented slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import _check_token, _decode
from .errors import ValidationError

SLOTS = ("findings", "keywords", "fact_table", "selected_facts", "videos")
VIDEO_STATUSES = ("pending", "processed")
SUMMARY_CAP = 4000
_TRUNCATION_MARK = " …[truncated]"


def _expect(value, kind: type, what: str, item: type | None = None):
    """``value`` if it is a ``kind`` (with ``item`` elements); else ValidationError."""
    names = {list: "array", dict: "object", str: "string"}
    if not isinstance(value, kind):
        raise ValidationError(f"memory bank {what} must be a JSON {names[kind]}, got {value!r}")
    if item is not None:
        for element in value:
            if not isinstance(element, item):
                raise ValidationError(
                    f"memory bank {what} must hold only JSON {names[item]}s, got {element!r}"
                )
    return value


@dataclass(frozen=True)
class FactEntry:
    fact: str
    source_tool: str = ""
    timestamp: str | None = None
    confidence: float | None = None

    def __post_init__(self):
        if not isinstance(self.fact, str) or not self.fact:
            raise ValidationError("fact text must be non-empty")
        if self.timestamp is not None and not isinstance(self.timestamp, str):
            raise ValidationError(
                f"fact timestamp must be a span string, got {self.timestamp!r}"
            )
        if self.confidence is not None:
            conf = float(self.confidence)
            if not 0.0 <= conf <= 1.0:
                raise ValidationError(f"fact confidence {conf} outside [0, 1]")
            object.__setattr__(self, "confidence", conf)

    def to_dict(self) -> dict:
        out: dict = {"fact": self.fact}
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        out["source_tool"] = self.source_tool
        if self.confidence is not None:
            out["confidence"] = self.confidence
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FactEntry":
        if "fact" not in data:
            raise ValidationError("fact entry is missing the 'fact' field")
        return cls(
            fact=data["fact"],
            source_tool=data.get("source_tool", ""),
            timestamp=data.get("timestamp"),
            confidence=data.get("confidence"),
        )


@dataclass
class VideoStatus:
    status: str = "pending"
    tools_used: set[str] = field(default_factory=set)
    path: str | None = None
    caption: str | None = None

    def __post_init__(self):
        self.tools_used = set(self.tools_used)
        if self.status not in VIDEO_STATUSES:
            raise ValidationError(
                f"video status must be one of {VIDEO_STATUSES}, got {self.status!r}"
            )
        if self.status == "processed" and not self.tools_used:
            raise ValidationError("a processed video must record at least one tool")

    def to_dict(self) -> dict:
        out: dict = {"status": self.status, "tools_used": sorted(self.tools_used)}
        if self.path is not None:
            out["path"] = self.path
        if self.caption is not None:
            out["caption"] = self.caption
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VideoStatus":
        return cls(
            status=data.get("status", "pending"),
            tools_used=set(_expect(data.get("tools_used", []), list, "tools_used", item=str)),
            path=data.get("path"),
            caption=data.get("caption"),
        )


@dataclass(frozen=True)
class KeywordMatches:
    """Search results: videos tagged with the keyword, facts mentioning it."""

    videos: tuple[str, ...] = ()
    facts: tuple[tuple[str, int, FactEntry], ...] = ()


@dataclass
class MemoryBank:
    findings: list[str] = field(default_factory=list)
    keywords: dict[str, set[str]] = field(default_factory=dict)
    fact_table: dict[str, list[FactEntry]] = field(default_factory=dict)
    selected_facts: list[str] = field(default_factory=list)
    videos: dict[str, VideoStatus] = field(default_factory=dict)

    # -- mutation operators -------------------------------------------------

    def _register_video(self, video_id: str) -> None:
        _check_token(video_id, "video id")
        if video_id not in self.videos:
            self.videos[video_id] = VideoStatus()

    def add_fact(self, video_id: str, entry: FactEntry) -> int:
        """Append to the video's fact list; returns the new 0-based index."""
        self._register_video(video_id)
        self.fact_table.setdefault(video_id, []).append(entry)
        return len(self.fact_table[video_id]) - 1

    def add_keyword(self, video_id: str, keyword: str) -> None:
        """Tag a video with a keyword (idempotent)."""
        if not keyword:
            raise ValueError("keyword must be non-empty")
        self._register_video(video_id)
        self.keywords.setdefault(video_id, set()).add(keyword)

    def remove_fact(self, video_id: str, index: int) -> FactEntry:
        """Delete one fact; later facts shift down by one."""
        if video_id not in self.fact_table:
            raise KeyError(f"no facts recorded for video {video_id!r}")
        facts = self.fact_table[video_id]
        if not 0 <= index < len(facts):
            raise IndexError(
                f"fact index {index} out of range for video {video_id!r} ({len(facts)} facts)"
            )
        return facts.pop(index)

    def clear_facts(self, video_id: str | None = None) -> None:
        """Empty one video's fact list, or every list; other slots untouched."""
        if video_id is None:
            for vid in self.fact_table:
                self.fact_table[vid] = []
            return
        if video_id not in self.fact_table:
            raise KeyError(f"no facts recorded for video {video_id!r}")
        self.fact_table[video_id] = []

    def select_facts(self, references: list[tuple[str, int]]) -> None:
        """Replace selected_facts with the referenced facts' texts, in order."""
        texts = []
        for video_id, index in references:
            if video_id not in self.fact_table:
                raise KeyError(f"no facts recorded for video {video_id!r}")
            facts = self.fact_table[video_id]
            if not 0 <= index < len(facts):
                raise IndexError(
                    f"fact index {index} out of range for video {video_id!r} ({len(facts)} facts)"
                )
            texts.append(facts[index].fact)
        self.selected_facts = texts

    def set_findings(self, findings: list[str]) -> None:
        """Whole-slot replace; findings have no finer-grained editor."""
        self.findings = [str(f) for f in findings]

    def mark_processed(
        self, video_id: str, tool: str, path: str | None = None, caption: str | None = None
    ) -> None:
        """Record a tool run against a video and flip it to processed."""
        if not tool:
            raise ValueError("tool name must be non-empty")
        self._register_video(video_id)
        status = self.videos[video_id]
        status.tools_used.add(tool)
        status.status = "processed"
        if path is not None:
            status.path = path
        if caption is not None:
            status.caption = caption

    # -- queries --------------------------------------------------------------

    def search_by_keyword(self, keyword: str) -> KeywordMatches:
        """Videos tagged with the keyword plus facts containing it (case-insensitive)."""
        needle = keyword.lower()
        videos = tuple(
            vid
            for vid in sorted(self.keywords)
            if any(kw.lower() == needle for kw in self.keywords[vid])
        )
        facts = tuple(
            (vid, idx, entry)
            for vid, idx, entry in self.flat_facts()
            if needle in entry.fact.lower()
        )
        return KeywordMatches(videos=videos, facts=facts)

    def flat_facts(self) -> list[tuple[str, int, FactEntry]]:
        """Deterministic flat view: video id ascending, then index; F#k = position k."""
        return [
            (vid, idx, entry)
            for vid in sorted(self.fact_table)
            for idx, entry in enumerate(self.fact_table[vid])
        ]

    def total_facts(self) -> int:
        return sum(len(facts) for facts in self.fact_table.values())

    def memory_summary(self, cap: int = SUMMARY_CAP) -> str:
        """Compact deterministic digest, never longer than ``cap`` characters."""
        head = (
            f"memory: {len(self.findings)} findings | {len(self.videos)} videos | "
            f"{self.total_facts()} facts | {len(self.selected_facts)} selected"
        )
        lines = [head]
        if self.findings:
            lines.append("findings:")
            lines.extend(f"  - {text}" for text in self.findings)
        if self.videos:
            lines.append("videos:")
            for vid in sorted(self.videos):
                status = self.videos[vid]
                count = len(self.fact_table.get(vid, []))
                lines.append(f"  - {vid} [{status.status}] {count} facts")
        text = "\n".join(lines)
        if len(text) > cap:
            text = text[: cap - len(_TRUNCATION_MARK)] + _TRUNCATION_MARK
        return text

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "findings": list(self.findings),
            "keywords": {vid: sorted(kws) for vid, kws in sorted(self.keywords.items())},
            "fact_table": {
                vid: [entry.to_dict() for entry in facts]
                for vid, facts in sorted(self.fact_table.items())
            },
            "selected_facts": list(self.selected_facts),
            "videos": {vid: status.to_dict() for vid, status in sorted(self.videos.items())},
        }

    def dump(self, slot: str | None = None) -> bytes:
        """Full JSON dump, or a single slot as ``{"<slot>": ...}``."""
        data = self.to_dict()
        if slot is not None:
            if slot not in SLOTS:
                raise ValueError(f"unknown slot {slot!r}; expected one of {SLOTS}")
            data = {slot: data[slot]}
        return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    @classmethod
    def load(cls, data: bytes | str) -> "MemoryBank":
        try:
            payload = json.loads(_decode(data))
        except json.JSONDecodeError as e:
            raise ValidationError(f"memory bank is not valid JSON: {e.msg}") from None
        if not isinstance(payload, dict):
            raise ValidationError("memory bank must be a JSON object")
        missing = [slot for slot in SLOTS if slot not in payload]
        if missing:
            raise ValidationError(f"memory bank is missing slots: {', '.join(missing)}")
        bank = cls(
            findings=[str(f) for f in _expect(payload["findings"], list, "findings")],
            keywords={
                vid: set(_expect(kws, list, f"keywords of {vid!r}", item=str))
                for vid, kws in _expect(payload["keywords"], dict, "keywords").items()
            },
            fact_table={
                vid: [
                    FactEntry.from_dict(e)
                    for e in _expect(facts, list, f"facts of {vid!r}", item=dict)
                ]
                for vid, facts in _expect(payload["fact_table"], dict, "fact_table").items()
            },
            selected_facts=[
                str(f) for f in _expect(payload["selected_facts"], list, "selected_facts")
            ],
            videos={
                vid: VideoStatus.from_dict(_expect(status, dict, f"status of {vid!r}"))
                for vid, status in _expect(payload["videos"], dict, "videos").items()
            },
        )
        for vid in list(bank.keywords) + list(bank.fact_table):
            if vid not in bank.videos:
                raise ValidationError(
                    f"video {vid!r} has keywords or facts but no videos entry"
                )
        return bank
