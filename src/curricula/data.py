"""Datasets: synthetic generation, CSV loading, and stratified k-fold splits.

The synthetic generator produces three Gaussian blobs arranged so that
telling class 0 apart from classes {1, 2} is structurally easier than
telling 1 and 2 apart: classes 1 and 2 sit on a common axis with their
mean separation scaled by the overlap factor (0 means coincident means),
while class 0 is displaced by the full separation along an orthogonal
axis. Shrinking the overlap factor makes the fine task harder without
touching the coarse one.

CSV format: header ``id,label,f1,...,fd``, one sample per row, labels in
{0, 1, 2}, decimal feature values. Partition exports are rows of
``id,fold_index,split`` with split in {train, val, test}. Both writers end
lines with ``\\r\\n``, as ``csv.writer`` does, and write each feature as
its shortest round-trip ``repr``. ``load_csv`` checks lines in file order,
so an error names the first bad line.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._checks import real, whole, wholes

#: The fine labels; every module takes the class set from here.
CLASSES = (0, 1, 2)
_MAX_ID = np.iinfo(np.int64).max
# Rows converted to Python numbers at a time by the CSV writers: large enough
# to amortise the numpy calls, small enough to keep the lists out of peak memory.
_CHUNK_ROWS = 4096


class ParseError(ValueError):
    """A data file that does not match the documented format."""


def _has_repeats(ids: np.ndarray) -> bool:
    # np.sort is far cheaper than np.unique or a Python set at 100k ids
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of feature vectors with fine labels.

    ``features`` is (n, d) float64, ``labels`` and ``ids`` are (n,) int64;
    ids are unique and non-negative. Arrays are frozen after construction
    so datasets can be shared freely across threads.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        ids = np.asarray(self.ids, dtype=np.int64).copy()
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if n == 0:
            raise ValueError("dataset must contain at least one sample")
        if features.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        if labels.shape != (n,) or ids.shape != (n,):
            raise ValueError("features, labels, and ids must have matching lengths")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if not np.isin(labels, CLASSES).all():
            raise ValueError("labels must be 0, 1, or 2")
        if (ids < 0).any():
            raise ValueError("ids must be non-negative")
        if _has_repeats(ids):
            raise ValueError("ids must be unique")
        for arr in (features, labels, ids):
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int, int]:
        return tuple(np.bincount(self.labels, minlength=len(CLASSES)).tolist())

    def subset(self, ids: np.ndarray) -> "Dataset":
        """The sub-dataset holding exactly the given ids, in the given order."""
        wanted = np.asarray(ids).ravel()
        query = wanted.astype(np.int64)
        order = np.argsort(self.ids)
        sorted_ids = self.ids[order]
        pos = np.minimum(np.searchsorted(sorted_ids, query), len(sorted_ids) - 1)
        found = sorted_ids[pos] == query
        if not found.all():
            first_missing = int(np.argmin(found))
            raise ValueError(f"id {int(wanted[first_missing])} not present in dataset")
        rows = order[pos]
        return Dataset(self.features[rows], self.labels[rows], self.ids[rows])


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the three-blob synthetic dataset.

    ``counts`` are the per-class sample counts (class 0, 1, 2). The means
    of classes 1 and 2 are ``overlap * separation`` apart; class 0 sits at
    distance ``separation`` along an orthogonal axis. ``noise`` is the
    isotropic Gaussian standard deviation.
    """

    counts: tuple[int, int, int]
    feature_dim: int = 2
    separation: float = 3.0
    overlap: float = 0.25
    noise: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", wholes(self.counts, "counts", three=True))
        whole(self.feature_dim, "feature_dim", 2)  # class 0 needs an orthogonal axis
        for name in ("separation", "overlap", "noise"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (self.separation > 0):
            raise ValueError(f"separation must be positive, got {self.separation}")
        if not (0.0 <= self.overlap <= 1.0):
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")
        if not (self.noise > 0):
            raise ValueError(f"noise must be positive, got {self.noise}")
        if self.seed is not None:
            whole(self.seed, "seed", 0)


def class_means(config: SynthConfig) -> np.ndarray:
    """The (3, d) matrix of blob means implied by a config."""
    d = config.feature_dim
    means = np.zeros((3, d))
    means[0, 1] = config.separation
    half = config.overlap * config.separation / 2.0
    means[1, 0] = -half
    means[2, 0] = half
    return means


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw the three-blob dataset; deterministic given ``config.seed``."""
    if config.seed is None:
        raise ValueError("SynthConfig.seed must be set before generating data")
    rng = np.random.default_rng(config.seed)
    means = class_means(config)
    blocks = []
    for c, n_c in enumerate(config.counts):
        blocks.append(means[c] + config.noise * rng.standard_normal((n_c, config.feature_dim)))
    labels = np.repeat(np.arange(len(CLASSES)), config.counts)
    return Dataset(np.vstack(blocks), labels, np.arange(len(labels)))


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from the documented ``id,label,f1,...,fd`` format."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, no samples") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise ParseError(f"{path}: line 1: header must be 'id,label,f1,...,fd', got {','.join(header)!r}")
        dim = len(header) - 2

        ids, labels, features = array("q"), array("q"), array("d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise ParseError(f"{path}: line {lineno}: expected {dim + 2} columns, got {len(row)}")
            try:
                sample_id = int(row[0])
                label = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as e:
                raise ParseError(f"{path}: line {lineno}: {e}") from None
            if label not in CLASSES:
                raise ParseError(f"{path}: line {lineno}: label must be 0, 1, or 2, got {label}")
            if sample_id < 0:
                raise ParseError(f"{path}: line {lineno}: id must be non-negative, got {sample_id}")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: line {lineno}: features must be finite")
            if sample_id > _MAX_ID:
                raise ParseError(f"{path}: line {lineno}: id must be at most {_MAX_ID}, got {sample_id}")
            ids.append(sample_id)
            labels.append(label)
            features.extend(values)

    if not ids:
        raise ParseError(f"{path}: no samples")
    id_array = np.frombuffer(ids, dtype=np.int64)
    if _has_repeats(id_array):
        raise ParseError(f"{path}: duplicate sample ids")
    return Dataset(
        np.frombuffer(features, dtype=np.float64).reshape(len(ids), dim),
        np.frombuffer(labels, dtype=np.int64),
        id_array,
    )


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the format ``load_csv`` reads, at full precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(",".join(["id", "label"] + [f"f{i + 1}" for i in range(dataset.feature_dim)]) + "\r\n")
        for start in range(0, len(dataset), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            fh.writelines(
                f"{sample_id},{label},{','.join(map(repr, values))}\r\n"
                for sample_id, label, values in zip(
                    dataset.ids[rows].tolist(),
                    dataset.labels[rows].tolist(),
                    dataset.features[rows].tolist(),
                )
            )


@dataclass(frozen=True)
class FoldPartition:
    """Disjoint train/val/test id sets for one cross-validation iteration."""

    fold_index: int
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("train_ids", "val_ids", "test_ids"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if _has_repeats(np.concatenate([self.train_ids, self.val_ids, self.test_ids])):
            raise ValueError("train/val/test id sets must be pairwise disjoint")
        if len(self.train_ids) == 0 or len(self.test_ids) == 0:
            raise ValueError("train and test sets must be non-empty")


def stratified_kfold(
    dataset: Dataset, k: int, val_fraction: float = 0.2, seed: int = 0
) -> list[FoldPartition]:
    """Stratified k-fold partitions with a per-class train/validation split.

    Within each class, sample ids are shuffled once with the seeded
    generator and dealt round-robin into k folds, so per-class fold sizes
    differ by at most 1. Partition ``i`` uses fold ``i`` as the test set;
    the remaining ids of each class are reshuffled (generator seeded by
    ``[seed, i]``) and split val/train at ``val_fraction``, rounded to the
    nearest integer per class. All per-class counts therefore stay within
    one sample of exact proportionality. Raises ``ValueError`` if a class
    would get no training sample, or a partition no validation sample.
    """
    if k < 2:
        raise ValueError(f"fold count must be at least 2, got {k}")
    if not (0.0 < val_fraction < 1.0):
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    counts = dataset.class_counts()
    for c in CLASSES:
        if counts[c] < k:
            raise ValueError(
                f"class {c} has {counts[c]} samples; need at least k={k} for stratified folds"
            )

    rng = np.random.default_rng(seed)
    folds_by_class: list[list[np.ndarray]] = []
    for c in CLASSES:
        class_ids = dataset.ids[dataset.labels == c]
        perm = rng.permutation(class_ids)
        folds_by_class.append([perm[j::k] for j in range(k)])

    partitions = []
    for i in range(k):
        split_rng = np.random.default_rng([seed, i])
        test_parts, val_parts, train_parts = [], [], []
        for c in CLASSES:
            test_parts.append(folds_by_class[c][i])
            remaining = np.concatenate([folds_by_class[c][j] for j in range(k) if j != i])
            remaining = split_rng.permutation(remaining)
            n_val = int(val_fraction * len(remaining) + 0.5)
            if n_val == len(remaining):
                raise ValueError(
                    f"k={k} and val_fraction={val_fraction} leave class {c} no training samples in fold {i}"
                )
            val_parts.append(remaining[:n_val])
            train_parts.append(remaining[n_val:])
        if not any(len(part) for part in val_parts):
            raise ValueError(f"k={k} and val_fraction={val_fraction} leave fold {i} no validation samples")
        partitions.append(
            FoldPartition(
                fold_index=i,
                train_ids=np.sort(np.concatenate(train_parts)),
                val_ids=np.sort(np.concatenate(val_parts)),
                test_ids=np.sort(np.concatenate(test_parts)),
            )
        )
    return partitions


def write_partitions_csv(partitions: list[FoldPartition], path: str | Path) -> None:
    """Export partitions as ``id,fold_index,split`` rows (split in train/val/test)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("id,fold_index,split\r\n")
        for part in partitions:
            for split, ids in (
                ("train", part.train_ids),
                ("val", part.val_ids),
                ("test", part.test_ids),
            ):
                tail = f",{part.fold_index},{split}\r\n"
                for start in range(0, len(ids), _CHUNK_ROWS):
                    chunk = ids[start : start + _CHUNK_ROWS].tolist()
                    fh.writelines(f"{sample_id}{tail}" for sample_id in chunk)
