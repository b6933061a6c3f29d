from __future__ import annotations

import json
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from fusekit import FactEntry, MemoryBank, ValidationError, VideoStatus
from fusekit.memory import SLOTS, SUMMARY_CAP, KeywordMatches


def seeded_bank() -> MemoryBank:
    bank = MemoryBank()
    bank.add_fact("vidA", FactEntry(fact="crowd gathers outside parliament", source_tool="query_claims"))
    bank.add_fact("vidA", FactEntry(fact="banner reads WIN", source_tool="caption", timestamp="220-230s"))
    bank.add_fact("vidB", FactEntry(fact="helicopter rescue shown", source_tool="video_qa", confidence=0.9))
    bank.add_keyword("vidA", "election")
    bank.add_keyword("vidB", "rescue")
    bank.set_findings(["two sources disagree on seat counts"])
    bank.mark_processed("vidA", "caption", caption="news broadcast")
    return bank


# ---------------------------------------------------------------------------
# fact operators
# ---------------------------------------------------------------------------


def test_add_fact_to_empty_bank():
    bank = MemoryBank()
    index = bank.add_fact("v1", FactEntry(fact="water level rising", source_tool="notes"))
    assert index == 0
    assert bank.videos["v1"].status == "pending"
    assert bank.fact_table["v1"][0].fact == "water level rising"


def test_add_fact_indices_follow_insertion_order():
    bank = MemoryBank()
    first = bank.add_fact("v1", FactEntry(fact="a", source_tool="t"))
    second = bank.add_fact("v1", FactEntry(fact="b", source_tool="t"))
    assert (first, second) == (0, 1)


def test_fact_stored_verbatim():
    bank = MemoryBank()
    entry = FactEntry(
        fact="at least one fatality and several missing; over 50 rescued via helicopter",
        source_tool="video_qa",
        timestamp="8-15s",
        confidence=1.0,
    )
    bank.add_fact("v1", entry)
    assert bank.fact_table["v1"][0] == entry
    assert bank.fact_table["v1"][0].timestamp == "8-15s"
    assert bank.fact_table["v1"][0].confidence == 1.0


def test_duplicate_facts_are_representable():
    bank = MemoryBank()
    entry = FactEntry(fact="same text", source_tool="t")
    bank.add_fact("v1", entry)
    bank.add_fact("v1", entry)
    assert len(bank.fact_table["v1"]) == 2


def test_fact_entry_validation():
    with pytest.raises(ValidationError):
        FactEntry(fact="", source_tool="t")
    with pytest.raises(ValidationError):
        FactEntry(fact="x", source_tool="t", confidence=1.5)


def test_remove_fact_shifts_indices():
    bank = MemoryBank()
    bank.add_fact("v1", FactEntry(fact="first", source_tool="t"))
    bank.add_fact("v1", FactEntry(fact="second", source_tool="t"))
    bank.remove_fact("v1", 0)
    assert bank.fact_table["v1"][0].fact == "second"


def test_remove_only_fact_keeps_video_key():
    bank = MemoryBank()
    bank.add_fact("v1", FactEntry(fact="only", source_tool="t"))
    bank.remove_fact("v1", 0)
    assert bank.fact_table["v1"] == []
    assert "v1" in bank.videos


def test_remove_fact_out_of_range():
    bank = MemoryBank()
    bank.add_fact("v1", FactEntry(fact="a", source_tool="t"))
    bank.add_fact("v1", FactEntry(fact="b", source_tool="t"))
    with pytest.raises(ValidationError):
        bank.remove_fact("v1", 5)
    with pytest.raises(ValidationError):
        bank.remove_fact("ghost", 0)


def test_clear_single_video():
    bank = seeded_bank()
    bank.clear_facts("vidA")
    assert bank.fact_table["vidA"] == []
    assert len(bank.fact_table["vidB"]) == 1
    assert "0 facts" in bank.memory_summary()


def test_clear_all_resets_every_list_but_nothing_else():
    bank = seeded_bank()
    findings_before = list(bank.findings)
    keywords_before = {v: set(k) for v, k in bank.keywords.items()}
    bank.clear_facts()
    assert bank.total_facts() == 0
    assert bank.findings == findings_before
    assert bank.keywords == keywords_before


def test_clear_unknown_video_errors():
    with pytest.raises(ValidationError):
        MemoryBank().clear_facts("ghost")


# ---------------------------------------------------------------------------
# keywords and search
# ---------------------------------------------------------------------------


def test_add_keyword_idempotent():
    bank = MemoryBank()
    bank.add_keyword("v1", "typhoon")
    bank.add_keyword("v1", "typhoon")
    assert bank.keywords["v1"] == {"typhoon"}


def test_add_keyword_registers_unknown_video_as_pending():
    bank = MemoryBank()
    bank.add_keyword("v9", "storm")
    assert bank.videos["v9"].status == "pending"


def test_add_empty_keyword_errors():
    with pytest.raises(ValueError):
        MemoryBank().add_keyword("v1", "")


def test_search_finds_tagged_video():
    bank = seeded_bank()
    matches = bank.search_by_keyword("election")
    assert "vidA" in matches.videos


def test_search_is_case_insensitive():
    bank = seeded_bank()
    assert "vidA" in bank.search_by_keyword("ELECTION").videos


def test_search_unknown_keyword_empty():
    matches = seeded_bank().search_by_keyword("nonexistent")
    assert matches.videos == () and matches.facts == ()


def test_search_matches_fact_substring():
    bank = seeded_bank()
    matches = bank.search_by_keyword("helicopter")
    assert matches.videos == ()
    assert len(matches.facts) == 1
    vid, idx, entry = matches.facts[0]
    assert (vid, idx) == ("vidB", 0)
    assert "helicopter" in entry.fact


def test_search_after_add_until_removed():
    bank = MemoryBank()
    bank.add_keyword("v1", "flood")
    assert "v1" in bank.search_by_keyword("flood").videos


# search_by_keyword reads an index kept beside the slots; a brute-force scan of the
# slots themselves is the reference
def scanned_matches(bank: MemoryBank, keyword: str) -> KeywordMatches:
    needle = keyword.lower()
    videos = tuple(
        vid for vid in sorted(bank.keywords) if any(kw.lower() == needle for kw in bank.keywords[vid])
    )
    facts = tuple((vid, idx, entry) for vid, idx, entry in bank.flat_facts() if needle in entry.fact.lower())
    return KeywordMatches(videos=videos, facts=facts)


# mixed case, and characters whose lowercase is longer ("İ") or differs by context ("Σ")
WORDS = ["storm", "Storm", "STORM SURGE", "fire", "aid", "İstanbul", "ΣΟΦΙΑ", "σ", "a"]
SEARCH_TERMS = WORDS + ["", "or", "i̇", "surge", "ΟΦ"]
VIDEO_IDS = ["v0", "v1", "v2"]


class MemoryIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bank = MemoryBank()

    @rule(vid=st.sampled_from(VIDEO_IDS), words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    def add_fact(self, vid, words):
        self.bank.add_fact(vid, FactEntry(fact=" ".join(words)))

    @rule(vid=st.sampled_from(VIDEO_IDS), keyword=st.sampled_from(WORDS))
    def add_keyword(self, vid, keyword):
        self.bank.add_keyword(vid, keyword)

    @precondition(lambda self: self.bank.total_facts() > 0)
    @rule(data=st.data())
    def remove_fact(self, data):
        vid, idx, _ = data.draw(st.sampled_from(self.bank.flat_facts()))
        self.bank.remove_fact(vid, idx)

    @precondition(lambda self: self.bank.fact_table)
    @rule(data=st.data())
    def clear_one(self, data):
        self.bank.clear_facts(data.draw(st.sampled_from(sorted(self.bank.fact_table))))

    @rule()
    def clear_all(self):
        self.bank.clear_facts()

    @rule()
    def reload(self):
        self.bank = MemoryBank.load(self.bank.dump())

    @rule(keyword=st.text(alphabet="aorsStİΣσ ", max_size=4))
    def search(self, keyword):
        assert self.bank.search_by_keyword(keyword) == scanned_matches(self.bank, keyword)

    @invariant()
    def every_search_matches_a_scan(self):
        for keyword in SEARCH_TERMS:
            assert self.bank.search_by_keyword(keyword) == scanned_matches(self.bank, keyword)


TestMemoryIndex = MemoryIndexMachine.TestCase
TestMemoryIndex.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


# ---------------------------------------------------------------------------
# selection and findings
# ---------------------------------------------------------------------------


def test_select_facts_records_texts_in_order():
    bank = seeded_bank()
    bank.select_facts([("vidB", 0), ("vidA", 1)])
    assert bank.selected_facts == ["helicopter rescue shown", "banner reads WIN"]


def test_select_empty_clears_selection():
    bank = seeded_bank()
    bank.select_facts([("vidA", 0)])
    bank.select_facts([])
    assert bank.selected_facts == []


def test_select_dangling_reference_errors():
    bank = seeded_bank()
    bank.remove_fact("vidB", 0)
    with pytest.raises(ValidationError):
        bank.select_facts([("vidB", 0)])


def test_flat_facts_order_is_video_then_index():
    bank = seeded_bank()
    flat = bank.flat_facts()
    assert [(vid, idx) for vid, idx, _ in flat] == [("vidA", 0), ("vidA", 1), ("vidB", 0)]


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def test_empty_bank_digest_is_fixed():
    assert MemoryBank().memory_summary() == "memory: 0 findings | 0 videos | 0 facts | 0 selected"


def test_summary_reports_per_video_fact_counts():
    bank = seeded_bank()
    text = bank.memory_summary()
    assert "vidA [processed] 2 facts" in text
    assert "vidB [pending] 1 facts" in text
    assert "1 findings" in text


def test_summary_deterministic():
    assert seeded_bank().memory_summary() == seeded_bank().memory_summary()


def test_summary_respects_cap():
    bank = MemoryBank()
    for i in range(500):
        bank.add_fact(f"v{i:03d}", FactEntry(fact="x" * 80, source_tool="t"))
    text = bank.memory_summary()
    assert len(text) <= SUMMARY_CAP
    assert text.endswith("[truncated]")
    small_cap = bank.memory_summary(cap=100)
    assert len(small_cap) <= 100


# ---------------------------------------------------------------------------
# dump / load
# ---------------------------------------------------------------------------


def test_dump_load_round_trip():
    bank = seeded_bank()
    assert MemoryBank.load(bank.dump()) == bank


def test_dump_structure_matches_documented_shape():
    payload = json.loads(seeded_bank().dump())
    assert list(payload) == list(SLOTS)
    fact = payload["fact_table"]["vidA"][1]
    assert fact == {
        "fact": "banner reads WIN",
        "timestamp": "220-230s",
        "source_tool": "caption",
    }
    assert payload["videos"]["vidA"]["status"] == "processed"
    assert payload["videos"]["vidA"]["tools_used"] == ["caption"]


def test_dump_single_slot():
    payload = json.loads(seeded_bank().dump("findings"))
    assert payload == {"findings": ["two sources disagree on seat counts"]}


def test_dump_unknown_slot_errors():
    with pytest.raises(ValueError) as excinfo:
        seeded_bank().dump("facts")
    assert "facts" in str(excinfo.value)


def test_load_rejects_missing_slots():
    with pytest.raises(ValidationError):
        MemoryBank.load(json.dumps({"findings": []}))


def test_load_rejects_unregistered_videos():
    payload = json.loads(MemoryBank().dump())
    payload["fact_table"]["ghost"] = [{"fact": "x", "source_tool": "t"}]
    with pytest.raises(ValidationError):
        MemoryBank.load(json.dumps(payload))


@pytest.mark.parametrize("vid", ["a b", "", "\t"])
def test_load_rejects_video_ids_that_are_not_tokens(vid):
    payload = json.loads(MemoryBank().dump())
    payload["videos"] = {vid: {"status": "pending", "tools_used": []}}
    payload["keywords"] = {vid: ["rescue"]}
    payload["fact_table"] = {vid: [{"fact": "x"}]}
    with pytest.raises(ValidationError, match="video id"):
        MemoryBank.load(json.dumps(payload))


def test_processed_video_requires_tools():
    with pytest.raises(ValidationError):
        VideoStatus(status="processed", tools_used=set())


# ---------------------------------------------------------------------------
# slot isolation via dump diffs
# ---------------------------------------------------------------------------


def _slots(bank: MemoryBank) -> dict:
    return json.loads(bank.dump())


def _changed_slots(before: dict, after: dict) -> set[str]:
    return {slot for slot in SLOTS if before[slot] != after[slot]}


def test_add_keyword_touches_only_keywords_and_videos():
    bank = seeded_bank()
    before = _slots(bank)
    bank.add_keyword("vidA", "parliament")
    assert _changed_slots(before, _slots(bank)) == {"keywords"}
    before = _slots(bank)
    bank.add_keyword("brand-new", "fresh")
    assert _changed_slots(before, _slots(bank)) == {"keywords", "videos"}


def test_remove_fact_touches_only_fact_table():
    bank = seeded_bank()
    before = _slots(bank)
    bank.remove_fact("vidA", 0)
    assert _changed_slots(before, _slots(bank)) == {"fact_table"}


def test_select_facts_touches_only_selected():
    bank = seeded_bank()
    before = _slots(bank)
    bank.select_facts([("vidA", 0)])
    assert _changed_slots(before, _slots(bank)) == {"selected_facts"}


def test_set_findings_touches_only_findings():
    bank = seeded_bank()
    before = _slots(bank)
    bank.set_findings(["updated view"])
    assert _changed_slots(before, _slots(bank)) == {"findings"}


@pytest.mark.parametrize(
    "operate, message",
    [
        (lambda bank: bank.add_fact("vidA", "text"), "fact entry must be a FactEntry, got 'text'"),
        (lambda bank: bank.add_fact("vidNew", None), "fact entry must be a FactEntry, got None"),
        (lambda bank: bank.add_keyword("vidA", 5), "keyword must be a string, got 5"),
        (lambda bank: bank.add_keyword("vidNew", ""), "keyword must be non-empty"),
        (lambda bank: bank.mark_processed("vidB", 7), "tool name must be a string, got 7"),
        (lambda bank: bank.mark_processed("vidNew", None), "tool name must be non-empty"),
        (lambda bank: bank.mark_processed("vidB", "ocr", path=3), "path must be a string, got 3"),
        (lambda bank: bank.mark_processed("vidB", "ocr", caption=b"x"), "caption must be a string, got b'x'"),
        (lambda bank: bank.set_findings([1, None]), "findings must hold only JSON strings, got 1"),
        (lambda bank: bank.set_findings(["ok", None]), "findings must hold only JSON strings, got None"),
        (lambda bank: bank.remove_fact("vidA", True), "fact index must be an integer, got True"),
        (lambda bank: bank.remove_fact("vidA", 1.0), "fact index must be an integer, got 1.0"),
        (lambda bank: bank.remove_fact("vidA", 2), r"fact index 2 out of range for video 'vidA' \(2 facts\)"),
        (lambda bank: bank.select_facts([("vidA", 0), ("vidB", False)]), "fact index must be an integer, got False"),
    ],
    ids=[
        "add-fact-text", "add-fact-new-video", "keyword-int", "keyword-empty", "tool-int", "tool-none",
        "path-int", "caption-bytes", "findings-int", "findings-none", "remove-bool", "remove-float",
        "remove-out-of-range", "select-bool",
    ],
)
def test_bad_operator_arguments_leave_the_bank_as_it_was(operate, message):
    bank = seeded_bank()
    before = bank.to_dict()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        operate(bank)
    assert bank.to_dict() == before
    reloaded = MemoryBank.load(bank.dump())
    assert reloaded == bank
    assert bank._videos_by_keyword == reloaded._videos_by_keyword  # the search index too
    assert bank._lower_facts == reloaded._lower_facts


# ---------------------------------------------------------------------------
# randomized operator sequences (smaller twin of the acceptance suite)
# ---------------------------------------------------------------------------


def random_operation(rng: random.Random, bank: MemoryBank) -> None:
    vids = [f"v{i}" for i in range(4)]
    choice = rng.randrange(8)
    if choice == 0:
        bank.add_fact(
            rng.choice(vids),
            FactEntry(
                fact=f"fact {rng.randrange(1000)}",
                source_tool=rng.choice(["caption", "query_claims", "video_qa"]),
                timestamp=rng.choice([None, "10s-15s", "8-15s"]),
                confidence=rng.choice([None, round(rng.random(), 3)]),
            ),
        )
    elif choice == 1:
        bank.add_keyword(rng.choice(vids), rng.choice(["storm", "vote", "fire", "aid"]))
    elif choice == 2:
        flat = bank.flat_facts()
        if flat:
            vid, idx, _ = rng.choice(flat)
            bank.remove_fact(vid, idx)
    elif choice == 3:
        if bank.fact_table and rng.random() < 0.5:
            bank.clear_facts(rng.choice(sorted(bank.fact_table)))
        else:
            bank.clear_facts()
    elif choice == 4:
        flat = bank.flat_facts()
        refs = [(vid, idx) for vid, idx, _ in rng.sample(flat, min(len(flat), rng.randrange(3)))]
        bank.select_facts(refs)
    elif choice == 5:
        bank.set_findings([f"finding {rng.randrange(100)}" for _ in range(rng.randrange(3))])
    elif choice == 6:
        bank.mark_processed(rng.choice(vids), rng.choice(["caption", "transcribe"]))
    else:
        bank.search_by_keyword("storm")


def test_random_sequences_keep_invariants():
    rng = random.Random(2024)
    for _ in range(200):
        bank = MemoryBank()
        for _ in range(rng.randrange(1, 12)):
            random_operation(rng, bank)
            assert MemoryBank.load(bank.dump()) == bank
            for vid in list(bank.keywords) + list(bank.fact_table):
                assert vid in bank.videos
            assert len(bank.memory_summary()) <= SUMMARY_CAP


@pytest.mark.parametrize(
    "slot, value",
    [
        ("findings", "not a list"),
        ("keywords", []),
        ("keywords", {"vidA": "rescue"}),
        ("keywords", {"vidA": [["rescue"]]}),
        ("fact_table", []),
        ("fact_table", {"vidA": {"fact": "x"}}),
        ("fact_table", {"vidA": [5]}),
        ("selected_facts", {}),
        ("videos", []),
        ("videos", {"vidA": "processed"}),
        ("videos", {"vidA": {"status": "processed", "tools_used": 5}}),
        ("findings", ["text", {"a": 1}]),
        ("findings", [None]),
        ("selected_facts", [3]),
        ("selected_facts", [["text"]]),
    ],
)
def test_load_rejects_slots_of_the_wrong_type(slot, value):
    payload = json.loads(seeded_bank().dump())
    payload[slot] = value
    with pytest.raises(ValidationError):
        MemoryBank.load(json.dumps(payload))


@pytest.mark.parametrize(
    "key, value", [("source_tool", 5), ("timestamp", 7), ("path", 7), ("caption", ["c"])]
)
def test_load_rejects_text_fields_of_the_wrong_type(key, value):
    payload = json.loads(seeded_bank().dump())
    record = payload["fact_table"]["vidA"][0] if key in ("source_tool", "timestamp") else payload["videos"]["vidA"]
    record[key] = value
    with pytest.raises(ValidationError, match=f"{key} must be a string"):
        MemoryBank.load(json.dumps(payload))


@pytest.mark.parametrize(
    "confidence", [[1], {}, "high", 1.5, pytest.param(10**400, id="int-beyond-float-range")]
)
def test_load_rejects_a_fact_confidence_that_is_not_a_probability(confidence):
    payload = json.loads(MemoryBank().dump())
    payload["fact_table"] = {"v1": [{"fact": "x", "confidence": confidence}]}
    payload["videos"] = {"v1": {"status": "pending", "tools_used": []}}
    with pytest.raises(ValidationError, match="confidence"):
        MemoryBank.load(json.dumps(payload))


@pytest.mark.parametrize("confidence", [True, "0.5"])
def test_load_rejects_a_fact_confidence_that_is_not_a_json_number(confidence):
    payload = json.loads(MemoryBank().dump())
    payload["fact_table"] = {"v1": [{"fact": "x", "confidence": confidence}]}
    payload["videos"] = {"v1": {"status": "pending", "tools_used": []}}
    with pytest.raises(ValidationError, match="confidence must be a number"):
        MemoryBank.load(json.dumps(payload))
