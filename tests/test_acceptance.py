"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fusekit import (
    AblationConfig,
    CalibratedArtifact,
    CalibrationPayload,
    ClaimRecord,
    Cutoffs,
    EvalReport,
    FusionInput,
    FusionStrategy,
    KEEP_ALL,
    MemoryBank,
    NoteRecord,
    Qrels,
    RunSet,
    ScoredList,
    SubQueryMap,
    attach,
    delta_report,
    evaluate,
    expansion_stats,
    filter_by_threshold,
    fuse,
    fuse_runs,
    max_sim,
    mean_sim,
    rrf,
    run_ablation,
    subsample,
    sum_sim,
    validate,
    weighted_rrf,
)
from fusekit.evidence import Prediction, load_calibrated, serialize, serialize_calibrated
from fusekit.memory import SUMMARY_CAP
from fusekit.metrics import format_delta

from reference_eval import CUTOFF_VALUES, FIXTURE_JUDGMENTS, FIXTURE_RANKINGS, ref_ndcg, ref_recall
from test_fusion import ALL_STRATEGIES, oracle_order, oracle_scores
from test_memory import random_operation

FIXTURES = Path(__file__).parent / "fixtures" / "pipeline"


def _passed(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def _random_instance(rng: random.Random):
    """≤ 10 docs, ≤ 5 sub-lists, strictly decreasing scores in [0, 1]."""
    docs = [f"d{i}" for i in range(rng.randint(1, 10))]
    lists = []
    for _ in range(rng.randint(1, 5)):
        chosen = rng.sample(docs, rng.randint(1, len(docs)))
        scores = sorted((rng.random() for _ in chosen), reverse=True)
        lists.append(list(zip(chosen, scores)))
    return lists


def _as_input(lists):
    return FusionInput("q", tuple(ScoredList(tuple(lst)) for lst in lists))


# ---------------------------------------------------------------------------
# criterion 1: fusion oracle equivalence on 1,000 random instances, < 10 s
# ---------------------------------------------------------------------------


def test_criterion_1_fusion_oracle_equivalence():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        lists = _random_instance(rng)
        inp = _as_input(lists)
        for strategy in ALL_STRATEGIES:
            expected = oracle_scores(lists, strategy.kind, k=strategy.k_constant)
            fused = fuse(inp, strategy)
            assert fused.docs() == tuple(oracle_order(expected))
            for doc, score in fused.entries:
                assert abs(score - expected[doc]) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, f"1000 instances x {len(ALL_STRATEGIES)} strategies vs brute force in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: reduction identities on 200 random instances
# ---------------------------------------------------------------------------


def test_criterion_2_reduction_identities():
    rng = random.Random(202)
    for _ in range(200):
        lists = _random_instance(rng)
        inp = _as_input(lists)
        n = len(lists)

        unit = _as_input([[(doc, 1.0) for doc, _ in lst] for lst in lists])
        assert weighted_rrf(unit, 60).entries == rrf(unit, 60).entries

        summed = sum_sim(inp).scores()
        for doc, score in mean_sim(inp).entries:
            assert score == summed[doc] / n

        single = _as_input([lists[0]])
        for strategy in ALL_STRATEGIES:
            assert fuse(single, strategy).docs() == tuple(doc for doc, _ in lists[0])
    _passed(2, "weighted_rrf(s=1)=rrf, mean=sum/N, single-list order preserved (200 instances)")


# ---------------------------------------------------------------------------
# criterion 3: metric equivalence with the reference evaluator (1e-6 per cell)
# ---------------------------------------------------------------------------


def test_criterion_3_metric_fixture_equivalence():
    run = RunSet(
        lists={
            qid: ScoredList(tuple((doc, float(len(docs) - i)) for i, doc in enumerate(docs)))
            for qid, docs in FIXTURE_RANKINGS.items()
        },
        tag="fixture",
    )
    qrels = Qrels(
        {
            (qid, doc): grade
            for qid, judged in FIXTURE_JUDGMENTS.items()
            for doc, grade in judged.items()
        }
    )
    report = evaluate(run, qrels, Cutoffs(CUTOFF_VALUES))
    cells = 0
    for qid, judged in FIXTURE_JUDGMENTS.items():
        ranked = FIXTURE_RANKINGS[qid]
        for k in CUTOFF_VALUES:
            assert abs(report.per_query[qid][f"nDCG@{k}"] - ref_ndcg(ranked, judged, k)) <= 1e-6
            assert abs(report.per_query[qid][f"R@{k}"] - ref_recall(ranked, judged, k)) <= 1e-6
            cells += 2
    # frozen oracle outputs (hand-checked for the short queries)
    assert report.per_query["q1"]["nDCG@10"] == pytest.approx(0.5113881456198478, abs=1e-9)
    assert report.per_query["q2"]["nDCG@10"] == 1.0
    assert report.per_query["q3"]["R@100"] == 0.0
    assert report.per_query["q4"]["R@20"] == pytest.approx(0.6, abs=1e-9)
    assert report.per_query["q5"]["nDCG@20"] == pytest.approx(0.7605122379752155, abs=1e-9)
    _passed(3, f"5-query graded fixture, {cells} cells within 1e-6 of the reference evaluator")


# ---------------------------------------------------------------------------
# criterion 4: frozen comparison-table deltas reproduce exactly at 2 dp incl. N/A
# ---------------------------------------------------------------------------

METRICS = ("nDCG@10", "nDCG@20", "nDCG@100", "R@10", "R@20", "R@100")

FIRST_STAGE = {
    "dense-baseline": (0.195, 0.229, 0.311, 0.190, 0.276, 0.494),
    "max_sim": (0.722, 0.743, 0.784, 0.639, 0.731, 0.826),
    "mean_sim": (0.637, 0.650, 0.696, 0.544, 0.618, 0.736),
    "sum_sim": (0.703, 0.725, 0.776, 0.604, 0.698, 0.818),
    "rrf-k10": (0.700, 0.739, 0.777, 0.612, 0.735, 0.832),
    "rrf-k60": (0.695, 0.728, 0.773, 0.599, 0.714, 0.823),
    "rrf-k100": (0.688, 0.719, 0.767, 0.590, 0.704, 0.818),
    "weighted_rrf": (0.699, 0.730, 0.778, 0.604, 0.714, 0.832),
}

RERANKED = {
    "dense-baseline": (
        (0.542, 0.534, 0.546, 0.423, 0.462, 0.494),
        ("177.95", "133.19", "75.56", "122.63", "67.39", "N/A"),
    ),
    "max_sim": (
        (0.399, 0.405, 0.425, 0.344, 0.383, 0.437),
        ("-44.74", "-45.49", "-45.79", "-46.17", "-47.61", "-47.09"),
    ),
    "mean_sim": (
        (0.740, 0.723, 0.750, 0.637, 0.665, 0.736),
        ("16.17", "11.23", "7.76", "17.10", "7.61", "N/A"),
    ),
    "sum_sim": (
        (0.747, 0.758, 0.800, 0.636, 0.711, 0.818),
        ("6.26", "4.55", "3.09", "5.30", "1.86", "N/A"),
    ),
    "rrf-k10": (
        (0.759, 0.771, 0.811, 0.652, 0.735, 0.832),
        ("8.43", "4.33", "4.38", "6.54", "N/A", "N/A"),
    ),
    "rrf-k60": (
        (0.754, 0.765, 0.807, 0.641, 0.716, 0.823),
        ("8.49", "5.08", "4.40", "7.01", "0.28", "N/A"),
    ),
    "rrf-k100": (
        (0.746, 0.757, 0.799, 0.636, 0.711, 0.818),
        ("8.43", "5.29", "4.17", "7.80", "0.99", "N/A"),
    ),
    "weighted_rrf": (
        (0.757, 0.768, 0.810, 0.650, 0.725, 0.832),
        ("8.30", "5.21", "4.11", "7.62", "1.54", "N/A"),
    ),
}


def test_criterion_4_table_delta_regression():
    checked = 0
    for row, (candidate_values, expected) in RERANKED.items():
        baseline = EvalReport(aggregate=dict(zip(METRICS, FIRST_STAGE[row])), tag=row)
        candidate = EvalReport(aggregate=dict(zip(METRICS, candidate_values)), tag=f"{row}+rr")
        deltas = delta_report(baseline, candidate).deltas
        for metric, want in zip(METRICS, expected):
            assert format_delta(deltas[metric]) == want, (row, metric)
            checked += 1
    assert format_delta(delta_report(
        EvalReport(aggregate={"nDCG@10": 0.195}, tag="a"),
        EvalReport(aggregate={"nDCG@10": 0.542}, tag="b"),
    ).deltas["nDCG@10"]) == "177.95"
    _passed(4, f"all {checked} frozen delta annotations reproduce, N/A included")


# ---------------------------------------------------------------------------
# criterion 5: expansion statistics regression
# ---------------------------------------------------------------------------


def _sized_map(sizes) -> SubQueryMap:
    return SubQueryMap(
        {
            f"q{i:02d}": tuple((f"q{i:02d}-s{j:02d}", f"text {j}") for j in range(size))
            for i, size in enumerate(sizes)
        }
    )


def test_criterion_5_expansion_stats_regression():
    full = [1, 22] + [23] * 9 + [25] * 8  # 19 groups, 430 sub-queries
    stats = expansion_stats(_sized_map(full))
    assert (stats.count, stats.min_size, stats.max_size) == (430, 1, 25)
    assert f"{stats.mean_size:.2f}" == "22.63"

    clean = full[1:]  # the 18 successful decompositions
    stats = expansion_stats(_sized_map(clean))
    assert (stats.count, stats.min_size, stats.max_size) == (429, 22, 25)
    assert f"{stats.mean_size:.2f}" == "23.83"
    _passed(5, "19-group/430 fixture -> (430, 1, 22.63, 25); 18-group subset -> (429, 22, 23.83, 25)")


# ---------------------------------------------------------------------------
# criterion 6: ablation determinism and fixed point
# ---------------------------------------------------------------------------


def test_criterion_6_ablation_determinism_and_fixed_point():
    rng = random.Random(606)
    docs = [f"v{i:02d}" for i in range(15)]
    mapping = SubQueryMap(
        {
            qid: tuple((f"{qid}-s{i}", f"sub {i}") for i in range(8))
            for qid in ("q1", "q2", "q3")
        }
    )

    def draw_list():
        chosen = rng.sample(docs, 8)
        scores = sorted((rng.random() for _ in chosen), reverse=True)
        return ScoredList(tuple(zip(chosen, scores)))

    varied = RunSet(
        lists={sid: draw_list() for qid in mapping.groups for sid, _ in mapping.groups[qid]},
        tag="subq",
    )
    qrels = Qrels(
        {(qid, d): rng.choice([0, 0, 1, 2]) for qid in mapping.groups for d in docs}
    )
    cutoffs = Cutoffs((5, 10))
    strategy = FusionStrategy("max_sim")
    config = AblationConfig(keep_counts=(1, 3, KEEP_ALL), seeds=(0, 1, 2, 3, 4), strategy=strategy)

    report = run_ablation(mapping, varied, qrels, config, cutoffs)
    plain = evaluate(fuse_runs(mapping, varied, strategy), qrels, cutoffs)
    for name, value in plain.aggregate.items():
        assert report.rows[KEEP_ALL][name] == (value, 0.0)

    again = run_ablation(mapping, varied, qrels, config, cutoffs)
    assert again == report

    for seed in (0, 4):
        for keep in (1, 3):
            assert subsample(mapping, keep, seed) == subsample(mapping, keep, seed)

    shared = draw_list()
    identical = RunSet(
        lists={sid: shared for qid in mapping.groups for sid, _ in mapping.groups[qid]},
        tag="subq",
    )
    flat_report = run_ablation(mapping, identical, qrels, config, cutoffs)
    reference = flat_report.rows[KEEP_ALL]
    for keep, row in flat_report.rows.items():
        for name, (mean, std) in row.items():
            assert mean == pytest.approx(reference[name][0], abs=1e-12)
            assert std == 0.0
    _passed(6, "keep=all is the plain pipeline, reports deterministic, identical sub-lists flatten to std 0")


# ---------------------------------------------------------------------------
# criterion 7: evidence round-trip, filter monotonicity, documented fixtures
# ---------------------------------------------------------------------------


def _random_record(rng: random.Random):
    token = lambda: "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789-_") for _ in range(rng.randint(1, 12)))
    text = lambda: "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz ,.'òéλ中") for _ in range(rng.randint(1, 60))
    ).strip() or "x"
    ts = None
    if rng.random() < 0.5:
        start = round(rng.uniform(0, 100), 3)
        ts = (start, round(start + rng.uniform(0, 60), 3))
    if rng.random() < 0.5:
        return NoteRecord(
            note_id=token(),
            video_id=token(),
            topic=text(),
            text=text(),
            modality=rng.choice(["visual", "ocr", "audio"]),
            timestamp=ts,
        )
    return ClaimRecord(
        claim_id=token(),
        query_id=token(),
        video_id=token(),
        topic=text(),
        claim=text(),
        confidence=round(rng.random(), 6) if rng.random() < 0.7 else None,
        evidence=text() if rng.random() < 0.5 else None,
        source=rng.choice(["video_visual", "video_text", "transcript", None]),
        timestamp=ts,
    )


def test_criterion_7_evidence_round_trip_and_filtering():
    rng = random.Random(707)
    for _ in range(1000):
        record = _random_record(rng)
        assert validate(serialize(record)) == record

    items = [
        CalibratedArtifact(
            artifact=ClaimRecord(
                claim_id=f"c{i}", query_id="q", video_id="v", topic="t", claim=f"claim {i}"
            ),
            calibration=CalibrationPayload(prob=rng.random()),
        )
        for i in range(200)
    ]
    for _ in range(50):
        t1, t2 = sorted((rng.random(), rng.random()))
        kept1, dropped1 = filter_by_threshold(items, t1)
        kept2, dropped2 = filter_by_threshold(items, t2)
        assert len(kept1) + len(dropped1) == len(items)
        ids1 = {c.artifact.claim_id for c in kept1}
        ids2 = {c.artifact.claim_id for c in kept2}
        assert ids2 <= ids1

    # documented example records parse to the documented values
    claim = validate(
        json.dumps(
            {
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
        )
    )
    assert claim.confidence == 0.95
    assert claim.source == "video_text"
    assert claim.timestamp == (0.0, 3.0)

    calibrated, report = attach(
        [claim],
        [Prediction(prob=0.95, artifact_id=claim.claim_id, raw_output="<answer>0.95</answer>")],
    )
    assert not report.unmatched_artifacts and not report.orphan_predictions
    payload = json.loads(serialize_calibrated(calibrated[0]))
    assert payload["calibration"]["unli"]["prob"] == 0.95
    assert load_calibrated(json.dumps(payload))[0].prob == 0.95
    kept, dropped = filter_by_threshold(calibrated, 0.5)
    assert len(kept) == 1 and not dropped
    _passed(7, "1000 records round-trip, filters monotone, documented fixtures carry 0.95/0.95 and pass 0.5")


# ---------------------------------------------------------------------------
# criterion 8: memory-bank property suite over 10,000 operator sequences
# ---------------------------------------------------------------------------


def test_criterion_8_memory_property_suite():
    rng = random.Random(808)
    sequences = 10_000
    for _ in range(sequences):
        bank = MemoryBank()
        for _ in range(rng.randint(1, 4)):
            random_operation(rng, bank)
            assert MemoryBank.load(bank.dump()) == bank
            for vid in list(bank.keywords) + list(bank.fact_table):
                assert vid in bank.videos
            assert len(bank.memory_summary()) <= SUMMARY_CAP
    _passed(8, f"{sequences} random operator sequences keep round-trip and slot invariants")


# ---------------------------------------------------------------------------
# criterion 9: offline end-to-end pipeline, < 30 s, byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_9_offline_end_to_end(tmp_path):
    def run_once(out_dir: Path):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "fusekit.cli",
                "pipeline",
                "--config",
                str(FIXTURES / "config.json"),
                "--out-dir",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )

    started = time.monotonic()
    first = run_once(tmp_path / "a")
    elapsed = time.monotonic() - started
    assert first.returncode == 0, first.stderr
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"

    second = run_once(tmp_path / "b")
    assert second.returncode == 0, second.stderr

    names = ("subqueries.run", "fused.run", "reranked.run", "manifest.json")
    for name in names:
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        assert a.exists() and a.stat().st_size > 0
        assert a.read_bytes() == b.read_bytes(), f"{name} differs between reruns"
    _passed(9, f"pipeline ran offline in {elapsed:.1f}s, three stage files + manifest, reruns byte-identical")
