"""Rank-fusion, retrieval-evaluation, and evidence-pipeline toolkit."""

__version__ = "0.1.0"

from .core import (
    DocId,
    ExpansionStats,
    Qrels,
    QueryId,
    RunSet,
    ScoredList,
    SubQueryMap,
    expansion_stats,
    parse_qrels,
    parse_run,
    parse_subquery_map,
    truncate,
    write_run,
    write_subquery_map,
)
from .errors import (
    AnswerTagError,
    FusekitError,
    ParseError,
    PipelineStageError,
    TransportError,
    ValidationError,
)
from .fusion import (
    FusionInput,
    FusionStrategy,
    fuse,
    max_sim,
    mean_sim,
    rrf,
    sum_sim,
    weighted_rrf,
)
from .metrics import (
    Cutoffs,
    DEFAULT_CUTOFFS,
    DeltaReport,
    EvalReport,
    delta_report,
    evaluate,
    ndcg_at_k,
    recall_at_k,
)
from .ablation import (
    KEEP_ALL,
    AblationConfig,
    AblationReport,
    fuse_runs,
    run_ablation,
    subsample,
)
from .evidence import (
    CalibratedArtifact,
    CalibrationPayload,
    ClaimRecord,
    NoteRecord,
    Prediction,
    attach,
    filter_by_threshold,
    parse_answer_tag,
    validate,
)
from .memory import FactEntry, MemoryBank, VideoStatus
