"""Property tests: the vectorised hot-path code against scalar references.

``batch_combined_loss_grad`` must be bit-equal, sample by sample, to the
scalar ``combined_loss``/``combined_loss_grad``, ``softmax`` to numpy's
generic reductions, and ``Dataset.subset`` must slice exactly what a plain
id->row dict lookup would. The CSV writers must write the same bytes as
``csv.writer`` row by row, ``load_csv`` must load what a row-by-row
``csv.reader`` loader loads, or fail with its message, and
``stratified_kfold`` must keep its fold contract for any class counts. An SGD epoch that fills a reused workspace must be bit-equal to one that
allocates fresh arrays at every step, and ``mean_recall`` to a per-class loop.
A run on a CSV must not depend on the order of its rows.
"""

import csv
import itertools
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curricula import data
from curricula.data import (
    CLASSES,
    Dataset,
    FoldPartition,
    ParseError,
    class_onehot,
    SynthConfig,
    generate_synthetic,
    load_csv,
    stratified_kfold,
    write_csv,
    write_partitions_csv,
)
from curricula.losses import (
    PROB_FLOOR,
    batch_combined_loss_grad,
    combined_loss,
    combined_loss_grad,
    softmax,
)
from curricula.harness import Arm, ExperimentConfig, resolved_synth, run_experiment
from curricula.metrics import mean_recall
from curricula.model import TrainConfig, Workspace, init, train_epoch
from curricula.scheduler import SchedulerSpec

# Differences of a few hundred between scores push softmax outputs far
# below PROB_FLOOR, down to exact zeros.
SCORE = st.floats(min_value=-400.0, max_value=400.0, allow_nan=False, allow_infinity=False)
# -0.0 passes the weight check and takes the kernel's plain cross-entropy
# branch; 5e-324, the smallest positive float, takes the blended path.
LAM = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    scores = draw(hnp.arrays(np.float64, (n, 3), elements=SCORE))
    single_class = draw(st.booleans())
    if single_class:
        labels = np.full(n, draw(st.integers(0, 2)), dtype=np.int64)
    else:
        labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    return scores, labels


def assert_bit_equal_to_scalar(scores, labels, lam):
    losses, grads = batch_combined_loss_grad(scores, class_onehot(labels), lam)
    assert losses.shape == (len(labels),) and grads.shape == (len(labels), 3)
    for i in range(len(labels)):
        y = int(labels[i])
        want_loss = np.float64(combined_loss(softmax(scores[i]), y, lam))
        assert losses[i].tobytes() == want_loss.tobytes(), (i, losses[i], want_loss)
        want_grad = combined_loss_grad(scores[i], y, lam)
        assert grads[i].tobytes() == want_grad.tobytes(), (i, grads[i], want_grad)


@settings(deadline=None)
@given(batches(), LAM)
def test_batch_is_bit_equal_to_scalar_ops(batch, lam):
    scores, labels = batch
    assert_bit_equal_to_scalar(scores, labels, lam)


@pytest.mark.parametrize("lam", [0.0, -0.0, 0.5, 1.0])
def test_bit_equal_where_probabilities_hit_the_floor(lam):
    # Rows whose softmax puts p[y], p[0] or 1 - p[0] below PROB_FLOOR,
    # including probabilities that underflow to exactly 0.
    scores = np.array(
        [
            [40.0, 0.0, 0.0],
            [-40.0, 0.0, 0.0],
            [0.0, 40.0, -40.0],
            [0.0, -800.0, 800.0],
            [800.0, -800.0, 0.0],
            [-800.0, 800.0, 0.0],
        ]
    )
    for label in range(3):
        labels = np.full(len(scores), label)
        p = softmax(scores)
        assert (p < PROB_FLOOR).any()
        assert_bit_equal_to_scalar(scores, labels, lam)


def generic_softmax(scores):
    """``softmax`` as it was before it was written out for three columns: numpy's
    max and sum reductions over the last axis. Frozen here as its reference."""
    scores = np.asarray(scores, dtype=np.float64)
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# Ties and -0.0 from the sampled values; spreads up to 1400 underflow to exact
# zeros, and scores within a few units of each other leave all three terms
# in the sum, where its order shows in the last bit.
SOFTMAX_SCORE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -700.0, 700.0, np.inf, -np.inf, np.nan]),
    st.floats(min_value=-700.0, max_value=700.0),
    st.floats(min_value=-3.0, max_value=3.0),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.sampled_from([(3,), (1, 3), (2, 3), (40, 3)]), elements=SOFTMAX_SCORE))
def test_softmax_is_bit_equal_to_the_generic_reductions(scores):
    """The three-column ``softmax`` against ``generic_softmax``, NaNs by position.

    Depends on one host fact: numpy sums a 3-wide row as ``(e0 + e1) + e2``,
    the order ``generic_softmax``'s ``sum`` takes and ``softmax`` writes out.
    """
    with np.errstate(invalid="ignore"):
        got, want = softmax(scores), generic_softmax(scores)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(deadline=None)
@given(
    st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64]),
    st.integers(min_value=1, max_value=16),
    st.data(),
)
def test_out_of_range_integer_labels_raise(dtype, n, data):
    info = np.iinfo(dtype)
    too_large = st.integers(3, int(info.max))
    bad = data.draw(st.one_of(too_large, st.integers(int(info.min), -1)) if info.min < 0 else too_large)
    labels = np.zeros(n, dtype=dtype)
    labels[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ValueError, match="labels must be 0, 1, or 2"):
        class_onehot(labels)


def assert_same_onehot(got, want):
    assert got.dtype == bool and got.shape == want.shape == (len(want), 3)
    np.testing.assert_array_equal(got, want)


def test_integer_labels_of_any_width_are_accepted():
    want = class_onehot(np.array([0, 1, 2, 2, 1, 0]))
    np.testing.assert_array_equal(want, np.eye(3, dtype=bool)[[0, 1, 2, 2, 1, 0]])
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        assert_same_onehot(class_onehot(np.array([0, 1, 2, 2, 1, 0], dtype=dtype)), want)


def test_float_labels_must_be_whole_class_numbers():
    with pytest.raises(ValueError, match="labels must be 0, 1, or 2"):
        class_onehot(np.array([0.0, 1.5, 2.0]))
    with pytest.raises(ValueError, match="labels must be 0, 1, or 2"):
        class_onehot(np.array([0.0, np.nan, 2.0]))
    assert_same_onehot(class_onehot(np.array([0.0, 1.0, 2.0])), class_onehot(np.array([0, 1, 2])))


def test_bool_labels_are_accepted_as_zero_and_one():
    got = class_onehot(np.array([True, False, True, False]))
    assert_same_onehot(got, class_onehot(np.array([1, 0, 1, 0])))


@settings(deadline=None)
@given(batches(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_a_single_non_finite_score_is_rejected(batch, bad, data):
    scores, labels = batch
    scores[data.draw(st.integers(0, len(labels) - 1)), data.draw(st.integers(0, 2))] = bad
    with pytest.raises(ValueError, match="^scores must be finite$"):
        batch_combined_loss_grad(scores, class_onehot(labels), 0.5)


def test_empty_batch_gives_empty_outputs():
    losses, grads = batch_combined_loss_grad(np.zeros((0, 3)), class_onehot(np.array([], dtype=np.int64)), 0.5)
    assert losses.shape == (0,) and grads.shape == (0, 3)


@st.composite
def datasets_and_queries(draw):
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=60, unique=True))
    ids = draw(st.permutations(ids))  # shuffled, not sorted
    n = len(ids)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = Dataset(rng.normal(size=(n, 2)), rng.integers(3, size=n), np.array(ids))
    query = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
    return dataset, query


def reference_rows(dataset, query):
    index_of = {int(v): i for i, v in enumerate(dataset.ids)}
    return [index_of[int(v)] for v in query]


@settings(deadline=None)
@given(datasets_and_queries())
def test_subset_matches_dict_reference(case):
    dataset, query = case
    rows = reference_rows(dataset, query)
    sub = dataset.subset(np.array(query))
    np.testing.assert_array_equal(sub.ids, dataset.ids[rows])
    np.testing.assert_array_equal(sub.labels, dataset.labels[rows])
    assert sub.features.tobytes() == dataset.features[rows].tobytes()


@settings(deadline=None)
@given(datasets_and_queries(), st.lists(st.integers(0, 2 * 10**9), min_size=1, max_size=5), st.data())
def test_subset_names_first_missing_id_in_query_order(case, extra, data):
    dataset, query = case
    present = set(dataset.ids.tolist())
    missing = [v for v in extra if v not in present]
    assume(missing)
    mixed = list(query)
    for v in missing:
        mixed.insert(data.draw(st.integers(0, len(mixed))), v)
    first = next(v for v in mixed if v in missing)
    with pytest.raises(ValueError, match=rf"^id {first} not present in dataset$"):
        dataset.subset(np.array(mixed))


# Values whose shortest repr is unusual: a signed zero, the smallest
# subnormal, and exponents where repr switches to scientific notation.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e300, -1e300, 1e-5, 123456789.0, 0.1]
FEATURE = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def csv_datasets(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    d = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    features = draw(hnp.arrays(np.float64, (n, d), elements=FEATURE))
    return Dataset(features, np.array(labels), np.array(ids, dtype=np.int64))


def reference_write_csv(dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{i + 1}" for i in range(dataset.feature_dim)])
        for i in range(len(dataset)):
            writer.writerow(
                [int(dataset.ids[i]), int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def reference_write_partitions_csv(partitions, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "fold_index", "split"])
        for part in partitions:
            for split, ids in (("train", part.train_ids), ("val", part.val_ids), ("test", part.test_ids)):
                for sample_id in ids:
                    writer.writerow([int(sample_id), part.fold_index, split])


def written_bytes(writer, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(obj, path)
        return path.read_bytes()


@settings(deadline=None)
@given(csv_datasets())
def test_write_csv_matches_csv_writer_and_round_trips(dataset):
    got = written_bytes(write_csv, dataset)
    assert got == written_bytes(reference_write_csv, dataset)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(got)
        loaded = load_csv(path)
    assert loaded.ids.tobytes() == dataset.ids.tobytes()
    assert loaded.labels.tobytes() == dataset.labels.tobytes()
    assert loaded.features.tobytes() == dataset.features.tobytes()


@st.composite
def partition_lists(draw):
    partitions = []
    for fold_index in range(draw(st.integers(min_value=1, max_value=4))):
        ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=40, unique=True))
        n_train = draw(st.integers(1, len(ids) - 1))
        n_val = draw(st.integers(0, len(ids) - n_train - 1))
        partitions.append(
            FoldPartition(
                fold_index=fold_index,
                train_ids=np.array(ids[:n_train]),
                val_ids=np.array(ids[n_train : n_train + n_val], dtype=np.int64),
                test_ids=np.array(ids[n_train + n_val :]),
            )
        )
    return partitions


@settings(deadline=None)
@given(partition_lists())
def test_write_partitions_csv_matches_csv_writer(partitions):
    assert written_bytes(write_partitions_csv, partitions) == written_bytes(
        reference_write_partitions_csv, partitions
    )


def reference_records(path, fh):
    """``(line number, row)`` for each ``csv.reader`` record; a ``csv.Error`` becomes a ``ParseError``."""
    rows = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as e:
            raise ParseError(f"{path}: line {lineno}: {e}") from None
        yield lineno, row


def reference_load_csv(path):
    """The row-by-row loader: ``csv.reader``, then ``int``/``float`` and the four checks per row."""
    ids, labels, features = [], [], []
    with open(path, newline="") as fh:
        records = reference_records(path, fh)
        width = len(next(records)[1])
        for lineno, row in records:
            where = f"{path}: line {lineno}: "
            if len(row) != width:
                raise ParseError(f"{where}expected {width} columns, got {len(row)}")
            try:
                sample_id, label, values = int(row[0]), int(row[1]), [float(v) for v in row[2:]]
            except ValueError as e:
                raise ParseError(f"{where}{e}") from None
            if label not in CLASSES:
                raise ParseError(f"{where}label must be 0, 1, or 2, got {label}")
            if sample_id < 0:
                raise ParseError(f"{where}id must be non-negative, got {sample_id}")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{where}features must be finite")
            if sample_id > 2**63 - 1:
                raise ParseError(f"{where}id must be at most {2**63 - 1}, got {sample_id}")
            ids.append(sample_id)
            labels.append(label)
            features.append(values)
    if not ids:
        raise ParseError(f"{path}: no samples")
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate sample ids")
    return np.array(ids, np.int64), np.array(labels, np.int64), np.array(features, np.float64)


# Fields that int or float reads differently from numpy's C reader, or that a
# check rejects; \x1c-\x1f are spaces to numpy but not to int and float.
# csv.reader rejects a field beyond its size limit, and before Python 3.11 a NUL byte.
ODD_IDS = ["1_0", "+5", "\u0665", '"7"', str(2**63), "-3", "-0", " 8 ", "5.0", "\x1c9", "\xa09"]
ODD_LABELS = ["3", "1.5", "-1", "+1", '"2"', "\u0662", " 0", "0_1", "\x1f1"]
ODD_FEATURES = ["nan", "inf", "-inf", "1e400", '"1.5"', "1_0.5", "+2.5", "\u0665", "\x1e1", " 3 ", "x", "", "1\x00"]
ODD_FEATURES.append("0." + "0" * csv.field_size_limit() + "1")
ODD_LINES = [" ", "\t", '"4\n5",0,1', "1,2,3,4,5,6"]


@st.composite
def csv_files(draw):
    dim = draw(st.integers(1, 3))
    lines = [",".join(["id", "label"] + [f"f{i + 1}" for i in range(dim)])]
    kinds = ["good"] * 24 + ["odd field", "odd field", "odd line", "blank", "short"] * draw(st.integers(0, 3))
    for i in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("odd line", "blank"):
            lines.append(draw(st.sampled_from(ODD_LINES)) if kind == "odd line" else "")
            continue
        fields = [
            str(i + draw(st.sampled_from([0, 10**12, 2**63 - 61]))),  # unique, up to the int64 limit
            draw(st.sampled_from("012")),
            *(repr(draw(FEATURE)) for _ in range(dim)),
        ]
        if kind == "odd field":
            column = draw(st.integers(0, dim + 1))
            fields[column] = draw(st.sampled_from([ODD_IDS, ODD_LABELS, *[ODD_FEATURES] * dim][column]))
        lines.append(",".join(fields[: -1 if kind == "short" else None]))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def loaded_or_error(loader, path):
    try:
        return loader(path)
    except ParseError as e:
        return f"{type(e).__name__}: {e}"


@settings(deadline=None, max_examples=500)
@given(csv_files(), st.integers(1, 200))
def test_load_csv_matches_the_row_by_row_loader(text, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        want = loaded_or_error(reference_load_csv, path)
        with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes):  # files span many chunks
            got = loaded_or_error(load_csv, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert [a.tobytes() for a in (got.ids, got.labels, got.features)] == [a.tobytes() for a in want]


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.lists(st.integers(0, 40), min_size=3, max_size=3),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_fold_contract(k, extra, val_fraction, seed, rnd):
    counts = [k + e for e in extra]
    labels = [c for c in range(3) for _ in range(counts[c])]
    ids = rnd.sample(range(10**6), len(labels))  # unsorted, not 0..n-1
    dataset = Dataset(np.zeros((len(labels), 1)), np.array(labels), np.array(ids))
    # Fold i tests len(range(i, n, k)) of a class's n ids; validation takes
    # round(val_fraction * remaining) of the rest. A split fails when that leaves
    # some class no training sample, or some fold no validation sample at all.
    remaining = [[n - len(range(i, n, k)) for n in counts] for i in range(k)]
    n_val = [[int(val_fraction * r + 0.5) for r in fold] for fold in remaining]
    starved = any(v >= r for fold_v, fold_r in zip(n_val, remaining) for v, r in zip(fold_v, fold_r))
    if starved or not all(any(fold) for fold in n_val):
        message = rf"k={k} and val_fraction={val_fraction} leave (class \d no training|fold \d no validation) "
        with pytest.raises(ValueError, match=message):
            stratified_kfold(dataset, k=k, val_fraction=val_fraction, seed=seed)
        return
    partitions = stratified_kfold(dataset, k=k, val_fraction=val_fraction, seed=seed)
    assert [p.fold_index for p in partitions] == list(range(k))
    label_of = dict(zip(ids, labels))
    tested = []
    for part in partitions:
        splits = [part.train_ids.tolist(), part.val_ids.tolist(), part.test_ids.tolist()]
        joined = [i for split in splits for i in split]
        assert sorted(joined) == sorted(ids)  # disjoint and covering
        tested += splits[2]
        assert splits[1]
        for c in range(3):
            train_c, val_c, test_c = (sum(label_of[i] == c for i in split) for split in splits)
            assert train_c >= 1
            assert abs(test_c - counts[c] / k) <= 1
            remaining = counts[c] - test_c
            assert abs(val_c - val_fraction * remaining) <= 1
            assert abs(train_c - (1 - val_fraction) * remaining) <= 1
    assert sorted(tested) == sorted(ids)


def reference_mean_recall(pred_labels, true_labels):
    """The per-class loop ``mean_recall`` replaced: one ``np.mean`` per class present."""
    recalls = []
    for c in np.unique(true_labels):
        mask = true_labels == c
        recalls.append(float(np.mean(pred_labels[mask] == c)))
    return float(np.mean(recalls))


@settings(deadline=None)
@given(st.integers(1, 300), st.sets(st.sampled_from(CLASSES), min_size=1), st.integers(0, 2**32 - 1))
def test_mean_recall_is_bit_equal_to_the_per_class_loop(n, present, seed):
    rng = np.random.default_rng(seed)
    true_labels = rng.choice(sorted(present), size=n)
    pred_labels = rng.integers(3, size=n)
    got = mean_recall(pred_labels, true_labels)
    assert np.float64(got).tobytes() == np.float64(reference_mean_recall(pred_labels, true_labels)).tobytes()


def fresh_array_epoch(params, train_set, lam, config, rng):
    """The SGD epoch with fresh arrays for every step's activations, deltas,
    gradients and update: the oracle a workspace epoch must match bit for bit."""
    n = len(train_set)
    order = rng.permutation(n)
    features = train_set.features[order]
    labels = train_set.labels[order]
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        x = features[start : start + config.batch_size]
        y = labels[start : start + config.batch_size]
        activations = [x]
        h = x
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
            activations.append(h)
        scores = h @ params.weights[-1].T + params.biases[-1]
        losses, grads = batch_combined_loss_grad(scores, class_onehot(y), lam)
        total_loss += float(losses.sum())
        delta = grads / len(y)
        weight_grads, bias_grads = [None] * len(params.weights), [None] * len(params.biases)
        for l in range(len(params.weights) - 1, -1, -1):
            weight_grads[l] = delta.T @ activations[l]
            bias_grads[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ params.weights[l]) * (activations[l] > 0.0)
        for w, b, dw, db in zip(params.weights, params.biases, weight_grads, bias_grads):
            w -= config.learning_rate * dw
            b -= config.learning_rate * db
    return total_loss / n


@st.composite
def sgd_runs(draw):
    batch_size = draw(st.integers(2, 12))
    # n is never a multiple of batch_size, so every epoch ends on a short
    # batch; n < batch_size makes that batch the only one.
    n = draw(st.integers(0, 4)) * batch_size + draw(st.integers(1, batch_size - 1))
    sizes = [draw(st.integers(1, 5)), *draw(st.lists(st.integers(1, 8), max_size=2)), 3]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(n, sizes[0]))
    # All-zero rows meet zero initial biases: exactly-zero pre-activations
    # pin the rectifier mask at z == 0.
    features[rng.random(n) < 0.2] = 0.0
    train_set = Dataset(features, rng.integers(3, size=n), np.arange(n))
    config = TrainConfig(learning_rate=draw(st.floats(0.01, 2.0)), batch_size=batch_size, hidden_sizes=tuple(sizes[1:-1]))
    lambdas = draw(st.lists(LAM, min_size=2, max_size=3))
    return sizes, train_set, config, lambdas, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None)
@given(sgd_runs())
def test_workspace_epochs_are_bit_equal_to_fresh_arrays(run):
    sizes, train_set, config, lambdas, seed = run
    ours = init(sizes, seed=seed)
    reference = ours.copy()
    workspace = Workspace(ours, min(config.batch_size, len(train_set)))
    ours_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for lam in lambdas:
        ours_loss = train_epoch(ours, train_set, lam, config, ours_rng, workspace)
        assert ours_loss == fresh_array_epoch(reference, train_set, lam, config, reference_rng)
    for a, b in zip(ours.weights + ours.biases, reference.weights + reference.biases):
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()


# 30 samples, 2 folds, 2 epochs: a run small enough to repeat per example.
TINY_RUN = ExperimentConfig(
    train=TrainConfig(epochs=2, batch_size=8, hidden_sizes=(4,)),
    arms=(Arm("constant_zero", SchedulerSpec("constant_zero", 1)), Arm("linear", SchedulerSpec("linear", 2))),
    synth=SynthConfig(counts=(10, 10, 10)),
    k=2,
    seed=4,
)


@settings(deadline=None, max_examples=30)
@given(st.permutations(range(30)))
def test_a_run_on_a_csv_does_not_depend_on_its_row_order(order):
    dataset = generate_synthetic(resolved_synth(TINY_RUN))
    shuffled = Dataset(*(a[list(order)] for a in (dataset.features, dataset.labels, dataset.ids)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(shuffled, path)
        report = run_experiment(replace(TINY_RUN, synth=None, csv_path=path))
    assert report.per_fold == run_experiment(TINY_RUN).per_fold
