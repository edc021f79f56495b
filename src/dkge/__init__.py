"""Dynamic knowledge-graph embeddings.

Each object carries a knowledge embedding for when it denotes itself and a
contextual embedding for when it appears inside another object's context
subgraph.  An attentive graph convolutional encoder turns each context into
a vector, a learned gate fuses it with the knowledge embedding, and the
joint embeddings are trained under the translation constraint h + r = t.
When the graph changes, online learning retrains only the triples whose
objects emerged or whose contexts changed, leaving every other parameter
bit-identical.
"""
from .checkpoint import load_checkpoint, save_checkpoint
from .contexts import (ContextSubgraph, ContextTable, ContextVertex, ENTITY,
                       RELATION, RELATION_PATH, build_context,
                       changed_context_objects, context_signature,
                       entity_context, relation_context)
from .errors import (ConfigError, DkgeError, EmptySnapshotError,
                     IntegrityError, ParseError, UnknownObjectError)
from .evaluation import (JointCache, MetricsReport, RankResult,
                         TIE_OPTIMISTIC, TIE_PESSIMISTIC, answer, evaluate,
                         rank_entity)
from .kg_store import (Snapshot, SnapshotDiff, Triple, diff_snapshots,
                       load_snapshot, load_snapshot_dir, parse_triple_file,
                       save_snapshot)
from .model import (ParameterStore, RelationStats, bernoulli_corrupt,
                    forward_triple, init_params, joint_embedding, margin_loss,
                    object_forward, relation_stats, score_triple)
from .training import (TrainConfig, TrainReport, collect_retrain_set,
                       train_from_scratch, train_online)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ContextSubgraph", "ContextTable", "ContextVertex",
    "DkgeError", "EmptySnapshotError", "ENTITY", "IntegrityError",
    "JointCache", "MetricsReport", "ParameterStore", "ParseError",
    "RankResult", "RELATION", "RELATION_PATH", "RelationStats", "Snapshot",
    "SnapshotDiff", "TIE_OPTIMISTIC", "TIE_PESSIMISTIC", "TrainConfig",
    "TrainReport", "Triple", "UnknownObjectError", "answer",
    "bernoulli_corrupt", "build_context", "changed_context_objects",
    "collect_retrain_set", "context_signature", "diff_snapshots",
    "entity_context", "evaluate", "forward_triple", "init_params",
    "joint_embedding", "load_checkpoint", "load_snapshot",
    "load_snapshot_dir", "margin_loss", "object_forward", "parse_triple_file",
    "rank_entity", "relation_context", "relation_stats", "save_checkpoint",
    "save_snapshot", "score_triple", "train_from_scratch", "train_online",
    "__version__",
]
