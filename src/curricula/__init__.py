"""Task-space curriculum learning for three-class classification.

The original three-class problem is the hard task; classifying class 0
against the merged classes 1 and 2 is the easy task. A per-epoch
scheduler blends the two losses, and cross-validated experiments compare
scheduler shapes against a plain hard-task baseline.
"""

from .data import Dataset, FoldPartition, SynthConfig, generate_synthetic, load_csv, stratified_kfold
from .harness import (
    Arm,
    ExperimentConfig,
    ExperimentReport,
    child_seed,
    parse_config,
    render_report,
    run_experiment,
)
from .losses import coarsen, combined_loss, combined_loss_grad, easy_loss, hard_loss, softmax
from .metrics import (
    MetricsReport,
    accuracy,
    auc_binary,
    average_auc,
    balanced_accuracy,
    binary_task_metrics,
    evaluate,
)
from .model import ModelParams, TrainConfig, TrainResult, init, predict_proba_batch, train, train_epoch
from .scheduler import KINDS, SchedulerSpec, default_switch_epoch, lambda_at, schedule

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "Dataset",
    "ExperimentConfig",
    "ExperimentReport",
    "FoldPartition",
    "KINDS",
    "MetricsReport",
    "ModelParams",
    "SchedulerSpec",
    "SynthConfig",
    "TrainConfig",
    "TrainResult",
    "accuracy",
    "auc_binary",
    "average_auc",
    "balanced_accuracy",
    "binary_task_metrics",
    "child_seed",
    "coarsen",
    "combined_loss",
    "combined_loss_grad",
    "default_switch_epoch",
    "easy_loss",
    "evaluate",
    "generate_synthetic",
    "hard_loss",
    "init",
    "lambda_at",
    "load_csv",
    "parse_config",
    "predict_proba_batch",
    "render_report",
    "run_experiment",
    "schedule",
    "softmax",
    "stratified_kfold",
    "train",
    "train_epoch",
]
