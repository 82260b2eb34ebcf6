"""Sparse factorization machines for student performance prediction.

Encode chronological (student, item, outcome) logs into sparse feature rows
(one-hot users/items/skills plus per-skill win/fail or attempt counters),
fit a factorization machine by MAP coordinate descent (logit link) or Gibbs
sampling (probit link), and evaluate under cross-validation. Classic student
models fall out as encoding presets: IRT/Rasch, MIRT with biases, the
additive factor model, and performance factor analysis.
"""

__version__ = "0.1.0"

from .encoding import (
    EncodingConfig,
    EncodingError,
    QMatrix,
    encode_dataset,
    preset_encoding,
)
from .evaluation import (
    CVReport,
    FoldMetrics,
    FoldSpec,
    accuracy,
    auc,
    make_folds,
    nll,
    run_cv,
)
from .model import (
    FMParams,
    Link,
    export_embeddings,
    predict_proba_matrix,
    raw_scores,
)
from .datasets import (
    Dataset,
    SynthSpec,
    Vocabulary,
    generate_synthetic,
    load_dataset,
    load_qmatrix,
    load_triplets,
    oracle_probabilities,
    write_synthetic,
    write_triplets,
)
from .persistence import ModelBundle, load_model, save_model
from .sparse import (
    DesignMatrix,
    FeatureSpace,
    LayoutError,
)
from .training import (
    TrainConfig,
    TrainingDivergedError,
    train_gibbs_probit,
    train_map_logit,
)

__all__ = [
    "__version__",
    "CVReport",
    "Dataset",
    "DesignMatrix",
    "EncodingConfig",
    "EncodingError",
    "FMParams",
    "FeatureSpace",
    "FoldMetrics",
    "FoldSpec",
    "LayoutError",
    "Link",
    "ModelBundle",
    "QMatrix",
    "SynthSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "Vocabulary",
    "accuracy",
    "auc",
    "encode_dataset",
    "export_embeddings",
    "generate_synthetic",
    "load_dataset",
    "load_model",
    "load_qmatrix",
    "load_triplets",
    "make_folds",
    "nll",
    "oracle_probabilities",
    "predict_proba_matrix",
    "preset_encoding",
    "raw_scores",
    "run_cv",
    "save_model",
    "train_gibbs_probit",
    "train_map_logit",
    "write_synthetic",
    "write_triplets",
]
