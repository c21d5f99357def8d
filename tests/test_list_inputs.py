"""Every public name takes Python lists where its docs name an array.

``LIST_CALLS`` holds one entry per name in ``curricula.__all__``. An entry
is a call written over its list-valued arguments, each passed through
``to``: the test runs it once with ``to`` as the identity, so the arguments
stay lists, and once with the type the docs name (``np.asarray`` unless the
entry pairs the call with another). The list call must return what the
documented call returns, bit for bit; every name does, so none is let off
with the ``ValueError`` the package's contract would also allow. A name that
takes no array or list input maps to the reason instead.
"""

import dataclasses

import numpy as np
import pytest

import curricula
from curricula import (
    Dataset,
    FoldPartition,
    ModelParams,
    SynthConfig,
    TrainConfig,
    accuracy,
    auc_binary,
    average_auc,
    balanced_accuracy,
    binary_task_metrics,
    combined_loss,
    combined_loss_grad,
    easy_loss,
    evaluate,
    hard_loss,
    init,
    predict_proba_batch,
    softmax,
    train,
)

PROBS = [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.5, 0.1, 0.4], [0.2, 0.2, 0.6]]
LABELS = [0, 1, 2, 2, 1]
FEATURES = [[0.5, 1.0], [2.0, -1.0], [0.0, 3.0], [-1.5, 0.25], [1.0, 1.0], [-0.5, -2.0]]


def _train(to):
    dataset = Dataset(np.array(FEATURES), np.array([0, 1, 2, 0, 1, 2]), np.arange(6))
    config = TrainConfig(learning_rate=0.1, epochs=3, batch_size=4, hidden_sizes=(4,))
    return train(init((2, 4, 3), 0), dataset, dataset, to([1.0, 0.5, 0.0]), config, np.random.default_rng(1))


LIST_CALLS = {
    "Arm": "takes a name and a SchedulerSpec",
    "Dataset": lambda to: Dataset(to(FEATURES[:3]), to([0, 1, 2]), to([4, 9, 2])),
    "ExperimentConfig": "takes config objects, scalars and a sequence of Arm, none of them arrays",
    "ExperimentReport": "holds per-arm lists of MetricsReport, which run_experiment builds",
    "FoldPartition": lambda to: FoldPartition(0, to([3, 1]), to([2]), to([0])),
    "KINDS": "a tuple of scheduler kind names, not a function",
    "MetricsReport": "takes five floats",
    "ModelParams": lambda to: ModelParams(to([1, 3]), to([0.5, -1.0, 2.0, 0.0, 0.25, -0.5])),
    "SchedulerSpec": "takes a kind name and two scalars",
    "SynthConfig": (lambda to: SynthConfig(to([3, 4, 5])), tuple),
    "TrainConfig": (lambda to: TrainConfig(hidden_sizes=to([4, 2])), tuple),
    "TrainResult": "a record that train fills; it checks nothing",
    "accuracy": lambda to: accuracy(to(PROBS), to(LABELS)),
    "auc_binary": lambda to: auc_binary(to([0.2, 0.9, 0.4, 0.4]), to([0, 1, 1, 0])),
    "average_auc": lambda to: average_auc(to(PROBS), to(LABELS)),
    "balanced_accuracy": lambda to: balanced_accuracy(to(PROBS), to(LABELS)),
    "binary_task_metrics": lambda to: binary_task_metrics(to(PROBS), to(LABELS)),
    "child_seed": "takes two ints and a tag string",
    "coarsen": "takes one fine label",
    "combined_loss": lambda to: combined_loss(to(PROBS[0]), 2, 0.25),
    "combined_loss_grad": lambda to: combined_loss_grad(to([0.5, -1.0, 2.0]), 1, 0.25),
    "default_switch_epoch": "takes one epoch count",
    "easy_loss": lambda to: easy_loss(to(PROBS[1]), 1),
    "evaluate": lambda to: evaluate(to(PROBS), to(LABELS)),
    "generate_synthetic": "takes a SynthConfig, whose list input is SynthConfig's entry, and a seed",
    "hard_loss": lambda to: hard_loss(to(PROBS[2]), 2),
    "init": lambda to: init(to([2, 4, 3]), 0),
    "lambda_at": "takes a SchedulerSpec and an epoch",
    "load_csv": "takes a path",
    "parse_config": "takes a path",
    "predict_proba_batch": lambda to: predict_proba_batch(init((2, 4, 3), 0), to(FEATURES)),
    "render_report": "takes an ExperimentReport and a path",
    "run_experiment": "takes an ExperimentConfig",
    "schedule": "takes a SchedulerSpec and an epoch count",
    "softmax": lambda to: softmax(to([[0.5, -1.0, 2.0], [3.0, 3.0, -0.0]])),
    "stratified_kfold": "takes a Dataset and three scalars",
    "train": _train,
    "train_epoch": "takes package objects, a scalar weight and a generator",
}


def assert_same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_same(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want, (got, want)


def test_the_table_lists_every_public_name():
    assert sorted(LIST_CALLS) == sorted(curricula.__all__)


@pytest.mark.parametrize("name", sorted(name for name, entry in LIST_CALLS.items() if not isinstance(entry, str)))
def test_a_list_input_gives_the_documented_call_s_result(name):
    entry = LIST_CALLS[name]
    call, to = entry if isinstance(entry, tuple) else (entry, np.asarray)
    assert_same(call(lambda value: value), call(to))
