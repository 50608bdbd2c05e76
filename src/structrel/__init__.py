"""Structured self-attention relation extraction at desk scale.

Builds six-way token-pair dependency matrices over documents, injects
them as learned attentive biases inside every self-attention layer, and
trains and evaluates a document-level relation extractor, including the
ablation and bias-visualization machinery.
"""

__version__ = "0.1.0"

from .autodiff import (
    Adam,
    Parameter,
    ParameterStore,
    Tensor,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from .batching import (
    EncodedDocument,
    distance_bucket,
    encode_document,
    encode_documents,
    make_batches,
)
from .config import ModelConfig, load_config, save_config
from .corpus import (
    CorpusError,
    CorpusStats,
    Document,
    Entity,
    Mention,
    RelationFact,
    Vocabulary,
    build_vocab,
    corpus_stats,
    entity_type_labels,
    parse_corpus,
    write_corpus,
)
from .encoder import BiasRecorder, encoder_forward, export_bias_heatmap
from .harness import (
    DivergenceError,
    TrainResult,
    dependency_rows,
    evaluate,
    layer_rows,
    load_run,
    render_ablation_table,
    run_ablation,
    save_run,
    term_rows,
    train,
    tune_threshold,
)
from .metrics import EvalReport, evaluate_facts, f1_score
from .model import PredictedFact, RelationExtractor
from .structure import (
    DependencyType,
    StructureMatrix,
    apply_ablation,
    build_structure_matrix,
    write_grid,
)
from .synth import SynthSpec, default_relation_rule, generate_synthetic
