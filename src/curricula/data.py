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
its shortest round-trip ``repr``. ``load_csv`` parses chunks of lines with
numpy's C reader, and line by line with ``csv`` from the first chunk numpy
declines: files load to the same bits either way, and errors name the first bad line.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ._checks import real, whole, wholes

#: The fine labels; every module takes the class set from here.
CLASSES = (0, 1, 2)
_CLASS_ROW = np.array(CLASSES)
_MAX_ID = np.iinfo(np.int64).max
# Rows converted to Python numbers at a time by the CSV writers: large enough
# to amortise the numpy calls, small enough to keep the lists out of peak memory.
_CHUNK_ROWS = 4096
# Characters of lines per np.loadtxt call in load_csv: the same trade-off, for text.
_CHUNK_BYTES = 1 << 18


class ParseError(ValueError):
    """A data file that does not match the documented format."""


def _class_onehot(labels: np.ndarray) -> np.ndarray:
    """The (n, 3) bool one-hot of the 1-D ``labels``; raises unless each is 0, 1 or 2.

    One comparison serves every dtype: -1, 3, 255, 1.5 and NaN match no class,
    and bools match 0 and 1.
    """
    onehot = labels[:, None] == _CLASS_ROW
    if np.count_nonzero(onehot) != len(labels):
        raise ValueError("labels must be 0, 1, or 2")
    return onehot


def _has_repeats(ids: np.ndarray) -> bool:
    # np.sort is far cheaper than np.unique or a Python set at 100k ids
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


def _int64_ids(values) -> np.ndarray:
    """``values`` as int64 ids, checked before the cast: raises naming the first
    that is not a non-negative whole number in int64 range."""
    wanted = np.asarray(values)
    if wanted.dtype == bool:  # as int64, a mask [True, False] would pass as ids [1, 0]
        raise ValueError("ids must be numbers, not bools: a mask is not a list of ids")
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range floats fail the round trip
        ids = wanted.astype(np.int64, copy=False)
    if (ids != wanted).any():
        raise ValueError(f"id {wanted[ids != wanted][0]} is not a whole number in int64 range")
    if (ids < 0).any():
        raise ValueError(f"ids must be non-negative, got {ids[ids < 0][0]}")
    return ids


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of feature vectors with fine labels.

    ``features`` is (n, d) float64, ``labels`` and ``ids`` are (n,) int64;
    ids are unique and non-negative. The arrays are read-only, so datasets can
    be shared freely across threads. The constructor copies what it is given;
    ``_adopt`` keeps, checked and uncopied, a producer's fresh unshared arrays.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        self._own(np.array(self.features, dtype=np.float64, order="C"), np.array(self.labels), np.array(self.ids))

    @classmethod
    def _adopt(cls, features: np.ndarray, labels: np.ndarray, ids: np.ndarray) -> "Dataset":
        dataset = object.__new__(cls)
        dataset._own(features, labels, ids)
        return dataset

    def _own(self, features: np.ndarray, labels: np.ndarray, ids: np.ndarray) -> None:
        ids = _int64_ids(ids)
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
        # The raw labels, before the cast: as int64, 1.5 would pass as 1.
        _class_onehot(labels)
        labels = labels.astype(np.int64, copy=False)
        if _has_repeats(ids):
            raise ValueError("ids must be unique")
        for name, array in (("features", features), ("labels", labels), ("ids", ids)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int, int]:
        return tuple(np.bincount(self.labels, minlength=len(CLASSES)).tolist())

    def subset(self, ids: np.ndarray) -> "Dataset":
        """The sub-dataset holding exactly the given ids, in the given order."""
        query = _int64_ids(np.ravel(ids))
        order = np.argsort(self.ids)
        sorted_ids = self.ids[order]
        pos = np.searchsorted(sorted_ids, query)
        np.minimum(pos, len(sorted_ids) - 1, out=pos)
        found = sorted_ids[pos] == query
        if not found.all():
            first_missing = int(np.argmin(found))
            raise ValueError(f"id {query[first_missing]} not present in dataset")
        rows = order[pos]
        return Dataset._adopt(*(a[rows] for a in (self.features, self.labels, self.ids)))


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


def class_means(config: SynthConfig) -> np.ndarray:
    """The (3, d) matrix of blob means implied by a config."""
    d = config.feature_dim
    means = np.zeros((3, d))
    means[0, 1] = config.separation
    half = config.overlap * config.separation / 2.0
    means[1, 0] = -half
    means[2, 0] = half
    return means


def generate_synthetic(config: SynthConfig, seed: int) -> Dataset:
    """Draw the three-blob dataset; deterministic given ``config`` and the int ``seed >= 0``."""
    whole(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    # Each class block is drawn and shifted in place: the bits of means[c] + noise * z.
    features = np.empty((sum(config.counts), config.feature_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails as non-finite features under any filter
        for block, mean in zip(np.split(features, np.cumsum(config.counts)[:-1]), class_means(config)):
            rng.standard_normal(out=block)
            block *= config.noise
            block += mean
    labels = np.repeat(np.arange(len(CLASSES)), config.counts)
    return Dataset._adopt(features, labels, np.arange(len(labels)))


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from the documented ``id,label,f1,...,fd`` format."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            try:
                header = [h.strip() for h in next(csv.reader(fh))]
            except StopIteration:
                raise ParseError(f"{path}: empty file, no samples") from None
            except csv.Error as e:  # a field beyond csv.field_size_limit(), or a NUL before Python 3.11
                raise ParseError(f"{path}: line 1: {e}") from None
            if len(header) < 3 or header[0] != "id" or header[1] != "label":
                raise ParseError(f"{path}: line 1: header must be 'id,label,f1,...,fd', got {','.join(header)!r}")
            dim = len(header) - 2

            ids, labels, features = array("q"), array("q"), array("d")
            record = np.dtype([("id", np.int64), ("label", np.int64), ("f", np.float64, (dim,))])
            while lines := fh.readlines(_CHUNK_BYTES):
                with warnings.catch_warnings(record=True) as warned:
                    warnings.simplefilter("always")  # numpy warns of blank chunks, and 1.x of float-like ints
                    try:
                        part = np.loadtxt(lines, record, delimiter=",", comments=None, quotechar=None, ndmin=1)
                        _class_onehot(part["label"])
                    except ValueError:
                        break
                # numpy skips blank lines (csv: 0-column rows), reads \x1c-\x1f as spaces and has no field size limit
                declined = warned or len(part) != len(lines) or max(map(len, lines)) > csv.field_size_limit()
                declined = declined or any(map("".join(lines).__contains__, "\x1c\x1d\x1e\x1f"))
                if declined or (part["id"] < 0).any() or not np.isfinite(part["f"]).all():
                    break
                for buffer, field in ((ids, "id"), (labels, "label"), (features, "f")):
                    buffer.frombytes(part[field].tobytes())
            # every accepted chunk held one sample per line, so line numbers carry on
            lineno = len(ids) + 1  # the last line read whole
            try:
                for lineno, row in enumerate(csv.reader(chain(lines, fh)), start=lineno + 1):
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
            except csv.Error as e:
                raise ParseError(f"{path}: line {lineno + 1}: {e}") from None
    except UnicodeDecodeError as e:  # read in chunks, so the byte's line is not known
        raise ParseError(f"{path}: not UTF-8: can't decode byte 0x{e.object[e.start]:02x}: {e.reason}") from None

    if not ids:
        raise ParseError(f"{path}: no samples")
    id_array = np.frombuffer(ids, dtype=np.int64)
    if _has_repeats(id_array):
        raise ParseError(f"{path}: duplicate sample ids")
    features = np.frombuffer(features, dtype=np.float64).reshape(len(ids), dim)
    return Dataset._adopt(features, np.frombuffer(labels, dtype=np.int64), id_array)


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


@dataclass(frozen=True, eq=False)
class FoldPartition:
    """Disjoint train/val/test id sets for one cross-validation iteration."""

    fold_index: int
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("train_ids", "val_ids", "test_ids"):
            object.__setattr__(self, name, np.array(_int64_ids(getattr(self, name))))
            getattr(self, name).setflags(write=False)
        if _has_repeats(np.concatenate([self.train_ids, self.val_ids, self.test_ids])):
            raise ValueError("train/val/test id sets must be pairwise disjoint")
        if len(self.train_ids) == 0 or len(self.test_ids) == 0:
            raise ValueError("train and test sets must be non-empty")


def stratified_kfold(
    dataset: Dataset, k: int, val_fraction: float = 0.2, seed: int = 0
) -> list[FoldPartition]:
    """Stratified k-fold partitions with a per-class train/validation split.

    Within each class, the sorted ids are shuffled once with the seeded
    generator and dealt round-robin into k folds, so the folds depend on
    the ids and not on the row order, and per-class fold sizes differ by
    at most 1. Partition ``i`` uses fold ``i`` as the test set; the
    remaining ids of each class are reshuffled (generator seeded by
    ``[seed, i]``) and split val/train at ``val_fraction``, rounded to the
    nearest integer per class. All per-class counts therefore stay within
    one sample of exact proportionality. Raises ``ValueError`` if a class
    would get no training sample, or a partition no validation sample.
    """
    whole(k, "fold count", 2)
    if not (0.0 < real(val_fraction, "val_fraction") < 1.0):
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    whole(seed, "seed", 0)
    counts = dataset.class_counts()
    for c in CLASSES:
        if counts[c] < k:
            raise ValueError(
                f"class {c} has {counts[c]} samples; need at least k={k} for stratified folds"
            )

    rng = np.random.default_rng(seed)
    folds_by_class: list[list[np.ndarray]] = []
    for c in CLASSES:
        perm = rng.permutation(np.sort(dataset.ids[dataset.labels == c]))
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
    with open(path, "w", newline="") as fh:
        fh.write("id,fold_index,split\r\n")
        for part in partitions:
            for split, ids in (
                ("train", part.train_ids),
                ("val", part.val_ids),
                ("test", part.test_ids),
            ):
                tail = f",{part.fold_index},{split}\r\n"
                for start in range(0, len(ids), _CHUNK_ROWS):
                    fh.write(tail.join(map(str, ids[start : start + _CHUNK_ROWS].tolist())) + tail)
