"""Desk-scale laboratory for magnitude-aware contrastive learning.

The package compares five similarity functions that differ only in how
they treat embedding magnitudes (full, one-sided, none, or learnable
normalization), with exact gradients, seeded synthetic retrieval tasks,
ranking metrics, and a verification suite for the algebraic identities
the variants satisfy.
"""

from .errors import (
    ConfigError,
    CorruptArtifact,
    DegenerateBatch,
    DegenerateInput,
    DegenerateVariance,
    DimensionMismatch,
    EmptyInput,
    InfeasibleSpec,
    MagnormError,
    NonFiniteEvaluation,
    NonFiniteLoss,
    TooFewSamples,
    UnknownQuery,
    ZeroMagnitude,
)
from .simcore import (
    COSINE,
    DNORM,
    DOT,
    QNORM,
    SimilarityKind,
    kind_from_name,
    kind_name,
    learnable,
    similarity,
    similarity_matrix,
)
from .objective import ContrastiveBatch, LossConfig, infonce_loss, softmax_probs
from .grad import gradcheck, infonce_grad, sim_grad, tangent_projector
from .datagen import TaskSpec, SyntheticTask, gen_asymmetric, gen_symmetric
from .metrics import mrr_at_k, ndcg_at_k, pearson, recall_at_k
from .model import TrainConfig, TwoTowerEncoder, init_encoder, train

__version__ = "0.1.0"

__all__ = [
    "COSINE",
    "DOT",
    "QNORM",
    "DNORM",
    "SimilarityKind",
    "learnable",
    "kind_from_name",
    "kind_name",
    "similarity",
    "similarity_matrix",
    "LossConfig",
    "ContrastiveBatch",
    "infonce_loss",
    "softmax_probs",
    "sim_grad",
    "infonce_grad",
    "gradcheck",
    "tangent_projector",
    "TaskSpec",
    "SyntheticTask",
    "gen_asymmetric",
    "gen_symmetric",
    "ndcg_at_k",
    "recall_at_k",
    "mrr_at_k",
    "pearson",
    "TwoTowerEncoder",
    "TrainConfig",
    "init_encoder",
    "train",
    "MagnormError",
    "ZeroMagnitude",
    "DimensionMismatch",
    "DegenerateBatch",
    "NonFiniteEvaluation",
    "NonFiniteLoss",
    "InfeasibleSpec",
    "UnknownQuery",
    "DegenerateInput",
    "DegenerateVariance",
    "TooFewSamples",
    "EmptyInput",
    "ConfigError",
    "CorruptArtifact",
    "__version__",
]
