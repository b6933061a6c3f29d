"""The whole retrieval pipeline offline, then a stage-by-stage comparison.

Runs decompose -> retrieve -> fuse -> rerank-inject from the shipped
fixture files (no network), evaluates the fused and reranked stages
against the fixture qrels, and prints the improvement table. Rerun it:
the outputs (including the manifest) are byte-identical.
"""

import tempfile
from pathlib import Path

from fusekit import Cutoffs, delta_report, evaluate, parse_qrels, parse_run
from fusekit.metrics import render_delta
from fusekit.pipeline import PipelineConfig, run_pipeline

fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "pipeline"
config = PipelineConfig.load(fixtures / "config.json")

out_dir = Path(tempfile.mkdtemp(prefix="pipeline-demo-"))
result = run_pipeline(config, out_dir)

print(f"stage files in {out_dir}:")
for name, path in result.stage_paths.items():
    print(f"  {name:<16} {path.stat().st_size:>6} bytes")
print(f"  manifest.json    {result.manifest_path.stat().st_size:>6} bytes")
print()
print("manifest input digests:")
for name, entry in result.manifest["inputs"].items():
    print(f"  {name:<14} sha256:{entry['sha256'][:16]}…")
print()

qrels = parse_qrels((fixtures / "qrels.txt").read_bytes())
cutoffs = Cutoffs((5, 10))
fused_report = evaluate(parse_run((out_dir / "fused.run").read_bytes()), qrels, cutoffs)
reranked_report = evaluate(parse_run((out_dir / "reranked.run").read_bytes()), qrels, cutoffs)
print(render_delta(delta_report(fused_report, reranked_report)))
print()
print("the rerank fixture deliberately reverses each fused head, so the")
print("injected stage moves every metric; tails past the head are untouched.")
