"""Pool-based active learning with optimal-transport acquisition and
barycentric over-sampling, at desk scale."""

__version__ = "0.1.0"

from .barysample import (
    AugmentationConfig,
    SyntheticSet,
    augment_l2_kde,
    augment_wasserstein,
    barycenter_tokens,
)
from .coreset import SelectionState, greedy_select
from .data import (
    Corpus,
    FeaturizerConfig,
    SeedSpec,
    SynthSpec,
    build_seed,
    export_jsonl,
    featurize_text,
    ingest_jsonl,
    make_synthetic,
    train_val_split,
)
from .gradspace import DistanceMatrix, pairwise_wasserstein
from .harness import ExperimentConfig, RunRecord, run_experiment, run_sweep
from .model import ClassifierHead, TrainingSet, train
from .report import report, validate_svg
from .stats import bonferroni, f1_macro, f1_target, wilcoxon_signed_rank
from .strategies import OTConfig, acquire
from .transport import (
    DiscreteMeasure,
    TransportPlan,
    barycenter_support_size,
    ground_cost,
    sinkhorn_distance,
    wasserstein_barycenter,
)

__all__ = [
    "AugmentationConfig", "SyntheticSet", "augment_l2_kde", "augment_wasserstein",
    "barycenter_tokens",
    "SelectionState", "greedy_select",
    "Corpus", "FeaturizerConfig", "SeedSpec", "SynthSpec", "build_seed",
    "export_jsonl", "featurize_text", "ingest_jsonl", "make_synthetic",
    "train_val_split",
    "DistanceMatrix", "pairwise_wasserstein",
    "ExperimentConfig", "RunRecord", "run_experiment", "run_sweep",
    "ClassifierHead", "TrainingSet", "train",
    "report", "validate_svg",
    "bonferroni", "f1_macro", "f1_target", "wilcoxon_signed_rank",
    "OTConfig", "acquire",
    "DiscreteMeasure", "TransportPlan", "barycenter_support_size",
    "ground_cost", "sinkhorn_distance", "wasserstein_barycenter",
    "__version__",
]
