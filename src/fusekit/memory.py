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

from .core import _check_text, _check_token, _expect, _is_json, _loads, from_json_object, json_record, to_json_object
from .errors import ValidationError
from .evidence import _check_confidence

SLOTS = ("findings", "keywords", "fact_table", "selected_facts", "videos")
VIDEO_STATUSES = ("pending", "processed")
SUMMARY_CAP = 4000
_TRUNCATION_MARK = " …[truncated]"


@json_record
@dataclass(frozen=True)
class FactEntry:
    fact: str
    timestamp: str | None = None
    source_tool: str = ""
    confidence: float | None = None

    def __post_init__(self):
        if not self.fact:
            raise ValidationError("fact text must be non-empty")
        if self.confidence is not None:
            object.__setattr__(self, "confidence", _check_confidence(self.confidence, "fact"))


@json_record
@dataclass
class VideoStatus:
    status: str = "pending"
    tools_used: set[str] = field(default_factory=set)
    path: str | None = None
    caption: str | None = None

    def __post_init__(self):
        if not isinstance(self.tools_used, (list, set)) or not all(
            isinstance(tool, str) for tool in self.tools_used
        ):
            raise ValidationError(f"tools_used must be an array of strings, got {self.tools_used!r}")
        self.tools_used = set(self.tools_used)
        if self.status not in VIDEO_STATUSES:
            raise ValidationError(
                f"video status must be one of {VIDEO_STATUSES}, got {self.status!r}"
            )
        if self.status == "processed" and not self.tools_used:
            raise ValidationError("a processed video must record at least one tool")


def _check_name(value, what: str) -> None:
    """A ValidationError naming ``what`` unless ``value`` is a non-empty str that UTF-8 encodes."""
    if not value:
        raise ValidationError(f"{what} must be non-empty")
    _check_text(value, what)


@dataclass(frozen=True)
class KeywordMatches:
    """Search results: videos tagged with the keyword, facts mentioning it."""

    videos: tuple[str, ...] = ()
    facts: tuple[tuple[str, int, FactEntry], ...] = ()


@dataclass
class MemoryBank:
    """The five slots, plus a search index derived from ``keywords`` and ``fact_table``.

    Change those two slots through the operators below, which keep the index
    in step; ``load`` and the constructor build it.
    """

    findings: list[str] = field(default_factory=list)
    keywords: dict[str, set[str]] = field(default_factory=dict)
    fact_table: dict[str, list[FactEntry]] = field(default_factory=dict)
    selected_facts: list[str] = field(default_factory=list)
    videos: dict[str, VideoStatus] = field(default_factory=dict)
    # derived from the slots above and never serialised: lowercase keyword -> videos tagged
    # with it, and each video's fact texts in lowercase, kept in step by every operator
    _videos_by_keyword: dict[str, set[str]] = field(init=False, compare=False, repr=False)
    _lower_facts: dict[str, list[str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._videos_by_keyword = {}
        for video_id, keywords in self.keywords.items():
            for keyword in keywords:
                self._videos_by_keyword.setdefault(keyword.lower(), set()).add(video_id)
        self._lower_facts = {
            video_id: [entry.fact.lower() for entry in facts] for video_id, facts in self.fact_table.items()
        }

    # -- mutation operators -------------------------------------------------
    # each checks every argument before it changes any slot, so a bad call leaves the bank as it was

    def _register_video(self, video_id: str) -> None:
        _check_token(video_id, "video id")
        if video_id not in self.videos:
            self.videos[video_id] = VideoStatus()

    def add_fact(self, video_id: str, entry: FactEntry) -> int:
        """Append to the video's fact list; returns the new 0-based index."""
        if not isinstance(entry, FactEntry):
            raise ValidationError(f"fact entry must be a FactEntry, got {entry!r}")
        self._register_video(video_id)
        self.fact_table.setdefault(video_id, []).append(entry)
        self._lower_facts.setdefault(video_id, []).append(entry.fact.lower())
        return len(self.fact_table[video_id]) - 1

    def add_keyword(self, video_id: str, keyword: str) -> None:
        """Tag a video with a keyword (idempotent)."""
        _check_name(keyword, "keyword")
        self._register_video(video_id)
        self.keywords.setdefault(video_id, set()).add(keyword)
        self._videos_by_keyword.setdefault(keyword.lower(), set()).add(video_id)

    def _facts(self, video_id: str, index: int | None = None) -> list[FactEntry]:
        """The video's fact list; a ValidationError if it has none or ``index`` is not in it."""
        _check_token(video_id, "video id")
        if video_id not in self.fact_table:
            raise ValidationError(f"no facts recorded for video {video_id!r}")
        facts = self.fact_table[video_id]
        if index is None:
            return facts
        if not _is_json(index, int):
            raise ValidationError(f"fact index must be an integer, got {index!r}")
        if not 0 <= index < len(facts):
            raise ValidationError(
                f"fact index {index} out of range for video {video_id!r} ({len(facts)} facts)"
            )
        return facts

    def remove_fact(self, video_id: str, index: int) -> FactEntry:
        """Delete one fact; later facts shift down by one."""
        facts = self._facts(video_id, index)
        del self._lower_facts[video_id][index]
        return facts.pop(index)

    def clear_facts(self, video_id: str | None = None) -> None:
        """Empty one video's fact list, or every list; other slots untouched."""
        if video_id is None:
            for vid in self.fact_table:
                self.fact_table[vid] = []
                self._lower_facts[vid] = []
            return
        self._facts(video_id)
        self.fact_table[video_id] = []
        self._lower_facts[video_id] = []

    def select_facts(self, references: list[tuple[str, int]]) -> None:
        """Replace selected_facts with the texts of the facts each (video id, index) pair names, in order."""
        texts = []
        for reference in references:
            if not isinstance(reference, tuple) or len(reference) != 2:
                raise ValidationError(f"fact reference must be a (video id, index) pair, got {reference!r}")
            video_id, index = reference
            texts.append(self._facts(video_id, index)[index].fact)
        self.selected_facts = texts

    def set_findings(self, findings: list[str]) -> None:
        """Whole-slot replace; findings have no finer-grained editor."""
        findings = _expect(list(findings), list, "findings", item=str)
        for finding in findings:
            _check_text(finding, "finding")
        self.findings = findings

    def mark_processed(
        self, video_id: str, tool: str, path: str | None = None, caption: str | None = None
    ) -> None:
        """Record a tool run against a video and flip it to processed."""
        _check_name(tool, "tool name")
        for name, value in (("path", path), ("caption", caption)):
            if value is not None:
                _check_text(value, name)
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
        """Videos tagged with the keyword plus facts containing it (case-insensitive); "" matches every fact."""
        if not isinstance(keyword, str):
            raise ValidationError(f"keyword must be a string, got {keyword!r}")
        needle = keyword.lower()
        facts = tuple(
            (vid, idx, self.fact_table[vid][idx])
            for vid in sorted(self._lower_facts)
            for idx, text in enumerate(self._lower_facts[vid])
            if needle in text
        )
        return KeywordMatches(videos=tuple(sorted(self._videos_by_keyword.get(needle, ()))), facts=facts)

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
        """Compact deterministic digest, never longer than ``cap`` characters.

        ``cap`` is an int no shorter than the truncation mark.
        """
        if not _is_json(cap, int) or cap < len(_TRUNCATION_MARK):
            raise ValidationError(f"summary cap must be an integer of at least {len(_TRUNCATION_MARK)}, got {cap!r}")
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
                vid: [to_json_object(entry) for entry in facts]
                for vid, facts in sorted(self.fact_table.items())
            },
            "selected_facts": list(self.selected_facts),
            "videos": {
                vid: {**to_json_object(status), "tools_used": sorted(status.tools_used)}
                for vid, status in sorted(self.videos.items())
            },
        }

    def dump(self, slot: str | None = None) -> bytes:
        """Full JSON dump, or a single slot as ``{"<slot>": ...}``."""
        data = self.to_dict()
        if slot is not None:
            if slot not in SLOTS:
                raise ValidationError(f"unknown slot {slot!r}; expected one of {SLOTS}")
            data = {slot: data[slot]}
        return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    @classmethod
    def load(cls, data: bytes | str) -> "MemoryBank":
        payload = _loads(data)
        if not isinstance(payload, dict):
            raise ValidationError("memory bank must be a JSON object")
        missing = [slot for slot in SLOTS if slot not in payload]
        if missing:
            raise ValidationError(f"memory bank is missing slots: {', '.join(missing)}")
        bank = cls(
            findings=_expect(payload["findings"], list, "findings", item=str),
            keywords={
                vid: set(_expect(kws, list, f"keywords of {vid!r}", item=str))
                for vid, kws in _expect(payload["keywords"], dict, "keywords").items()
            },
            fact_table={
                vid: [
                    from_json_object(FactEntry, e)
                    for e in _expect(facts, list, f"facts of {vid!r}", item=dict)
                ]
                for vid, facts in _expect(payload["fact_table"], dict, "fact_table").items()
            },
            selected_facts=_expect(payload["selected_facts"], list, "selected_facts", item=str),
            videos={
                vid: from_json_object(VideoStatus, _expect(status, dict, f"status of {vid!r}"))
                for vid, status in _expect(payload["videos"], dict, "videos").items()
            },
        )
        for vid in [*bank.videos, *bank.keywords, *bank.fact_table]:
            _check_token(vid, "video id")
            if vid not in bank.videos:
                raise ValidationError(
                    f"video {vid!r} has keywords or facts but no videos entry"
                )
        return bank
