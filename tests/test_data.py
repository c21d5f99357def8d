import csv
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from curricula import data
from curricula.data import (
    Dataset,
    FoldPartition,
    ParseError,
    SynthConfig,
    class_means,
    class_onehot,
    generate_synthetic,
    load_csv,
    stratified_kfold,
    write_csv,
    write_partitions_csv,
)
from curricula.losses import coarsen

TABLE_COUNTS = (349, 653, 707)


def synth(counts=(30, 30, 30), **kwargs):
    kwargs.setdefault("seed", 11)
    return generate_synthetic(SynthConfig(counts=counts, **kwargs))


class TestDataset:
    def test_basic_accessors(self):
        ds = Dataset(np.ones((3, 2)), np.array([0, 1, 2]), np.array([5, 7, 9]))
        assert len(ds) == 3
        assert ds.feature_dim == 2
        assert ds.class_counts() == (1, 1, 1)
        assert ds.ids[1] == 7 and ds.labels[1] == 1

    def test_subset_by_ids(self):
        ds = Dataset(np.arange(8).reshape(4, 2), np.array([0, 1, 2, 1]), np.array([3, 1, 4, 1 + 8]))
        sub = ds.subset(np.array([4, 3]))
        np.testing.assert_array_equal(sub.ids, [4, 3])
        np.testing.assert_array_equal(sub.features, [[4, 5], [0, 1]])
        with pytest.raises(ValueError):
            ds.subset(np.array([99]))

    def test_subset_checks_ids_before_the_int64_cast(self):
        ds = Dataset(np.arange(8).reshape(4, 2), np.array([0, 1, 2, 1]), np.array([3, 1, 4, 1 + 8]))
        for bad in (1.5, np.nan, np.inf):  # as int64, 1.5 would select id 1
            with pytest.raises(ValueError, match=rf"^id {bad} is not a whole number in int64 range$"):
                ds.subset(np.array([4.0, bad]))
        np.testing.assert_array_equal(ds.subset(np.array([4.0, 1.0])).ids, [4, 1])

    @pytest.mark.parametrize("where", ["Dataset", "subset", "FoldPartition"])
    def test_every_id_is_checked_before_the_int64_cast(self, where):
        # As int64, 1.5 and 2.9 would be read as ids 1 and 2.
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), np.array([1, 2, 3]))
        ids_of = {
            "Dataset": lambda ids: Dataset(np.zeros((2, 2)), np.array([0, 1]), ids).ids,
            "subset": lambda ids: ds.subset(ids).ids,
            "FoldPartition": lambda ids: FoldPartition(0, ids, [7.0], [8.0]).train_ids,
        }[where]
        for bad in (1.5, 2.9, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=rf"^id {bad} is not a whole number in int64 range$"):
                ids_of(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="^ids must be non-negative, got -1$"):
            ids_of(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="^ids must be non-negative, got -1$"):
            ids_of(np.array([1, -1]))
        assert ids_of(np.array([1.0, 2.0])).tolist() == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 3]), np.array([0, 1]))  # bad label
        for bad in (1.5, np.nan):  # checked before the int64 cast
            with pytest.raises(ValueError, match="^labels must be 0, 1, or 2$"):
                Dataset(np.ones((2, 2)), np.array([0, bad]), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 1]), np.array([1, 1]))  # duplicate ids
        with pytest.raises(ValueError):
            Dataset(np.full((2, 2), np.nan), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "features, labels, ids, message",
        [
            (np.ones(3), [0, 1, 2], [0, 1, 2], "features must be 2-D, got shape (3,)"),
            (np.ones((2, 2, 1)), [0, 1], [0, 1], "features must be 2-D, got shape (2, 2, 1)"),
            (np.ones((2, 0)), [0, 1], [0, 1], "feature dimension must be at least 1"),
            (np.ones((2, 2)), [0, 1, 2], [0, 1], "features, labels, and ids must have matching lengths"),
            (np.ones((2, 2)), [0, 1], [0], "features, labels, and ids must have matching lengths"),
            (np.ones((2, 2)), [[0, 1]], [0, 1], "features, labels, and ids must have matching lengths"),
        ],
    )
    def test_shape_rules_fail_with_exact_message(self, features, labels, ids, message):
        with pytest.raises(ValueError) as excinfo:
            Dataset(features, np.array(labels), np.array(ids))
        assert str(excinfo.value) == message

    def test_class_onehot_checks_labels_of_every_dtype(self):
        # One comparison covers every dtype; bools pass as 0 and 1.
        for labels in (
            np.array([0, -1, 2], dtype=np.int8),
            np.array([0, 255, 2], dtype=np.uint8),
            np.array([0, 3, 2]),
            np.array([0.0, 1.5, 2.0]),
            np.array([0.0, np.nan, 2.0]),
        ):
            with pytest.raises(ValueError, match="^labels must be 0, 1, or 2$"):
                class_onehot(labels)
        onehot = class_onehot(np.array([True, False, True]))
        assert onehot.dtype == bool
        np.testing.assert_array_equal(onehot, [[0, 1, 0], [1, 0, 0], [0, 1, 0]])

    def test_caller_keeps_a_writable_feature_array(self):
        features, labels, ids = np.zeros((3, 2)), np.array([0, 1, 2]), np.arange(3)
        ds = Dataset(features, labels, ids)
        features[0, 0], labels[0], ids[0] = 1.0, 2, 7
        assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0 and ds.ids[0] == 0
        for array in (ds.features, ds.labels, ds.ids):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("given", ["writable", "read-only", "list"])
    def test_constructor_copies_every_input(self, given):
        arrays = np.zeros((3, 2)), np.array([0, 1, 2], dtype=np.int64), np.arange(3, dtype=np.int64)
        for array in arrays:
            array.setflags(write=given != "read-only")
        ds = Dataset(*(array.tolist() if given == "list" else array for array in arrays))
        for mine, theirs in zip((ds.features, ds.labels, ds.ids), arrays):
            assert not np.shares_memory(mine, theirs)
            assert not mine.flags.writeable

    def test_caller_cannot_reopen_a_read_only_array_into_the_dataset(self):
        arrays = np.zeros((3, 2)), np.array([0, 1, 2], dtype=np.int64), np.arange(3, dtype=np.int64)
        for array in arrays:
            array.setflags(write=False)
        ds = Dataset(*arrays)
        for array in arrays:
            array.setflags(write=True)
        arrays[0][0, 0], arrays[1][0], arrays[2][0] = np.nan, 2, 1
        np.testing.assert_array_equal(ds.features, np.zeros((3, 2)))
        assert ds.labels.tolist() == [0, 1, 2] and ds.ids.tolist() == [0, 1, 2]

    def test_read_only_inputs_are_cast_and_checked_as_writable_ones_are(self):
        arrays = np.zeros((3, 2)), np.array([0, 1, 2], dtype=np.int64), np.arange(3, dtype=np.int32)
        half = np.array([0.0, 1.5, 2.0])
        for array in (*arrays, half):
            array.setflags(write=False)
        assert Dataset(*arrays).ids.dtype == np.int64
        # labels are checked before the cast: as int64, 1.5 would pass as 1
        with pytest.raises(ValueError, match="^labels must be 0, 1, or 2$"):
            Dataset(arrays[0], half, arrays[2])

    @pytest.mark.parametrize("producer, bound", [("generate_synthetic", 1.9), ("subset", 2.8), ("load_csv", 2.3)])
    def test_producers_hand_over_their_arrays_uncopied(self, producer, bound, tmp_path):
        # Traced peaks over the features' bytes, without a copy and with one:
        # subset 2.16 and 3.41 (25k of 50k x 8 rows), load_csv 1.83 and 2.73
        # (20k x 8). generate_synthetic (50k x 8) fills one array in place:
        # 1.39, against 2.39 when it stacks per-class blocks and 3.64 with a copy.
        n = 20_000 if producer == "load_csv" else 50_000
        ds = synth(counts=(n // 3, n // 3, n - 2 * (n // 3)), feature_dim=8)
        query = np.random.default_rng(0).permutation(ds.ids)[: n // 2]
        if producer == "load_csv":
            write_csv(ds, tmp_path / "data.csv")
        make = {
            "generate_synthetic": lambda: synth(counts=ds.class_counts(), feature_dim=8),
            "subset": lambda: ds.subset(query),
            "load_csv": lambda: load_csv(tmp_path / "data.csv"),
        }[producer]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            made = make()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound * made.features.nbytes, (peak, made.features.nbytes)

    def test_arrays_are_frozen(self):
        ds = Dataset(np.ones((2, 2)), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


class TestSynthetic:
    def test_exact_class_counts(self):
        ds = synth(counts=TABLE_COUNTS, seed=11)
        assert ds.class_counts() == TABLE_COUNTS
        assert len(ds) == sum(TABLE_COUNTS)
        assert ds.feature_dim == 2

    def test_deterministic(self):
        a = synth(seed=42)
        b = synth(seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        c = synth(seed=43)
        assert not np.array_equal(a.features, c.features)

    def test_coarse_counts(self):
        ds = synth(counts=(10, 20, 30))
        z = np.array([coarsen(int(y)) for y in ds.labels])
        assert int((z == 0).sum()) == 10
        assert int((z == 1).sum()) == 50

    def test_zero_overlap_means_coincident_fine_means(self):
        means = class_means(SynthConfig(counts=(5, 5, 5), overlap=0.0, seed=0))
        np.testing.assert_array_equal(means[1], means[2])
        assert np.linalg.norm(means[0] - means[1]) == pytest.approx(3.0)

    def test_class_zero_sits_on_orthogonal_axis(self):
        cfg = SynthConfig(counts=(5, 5, 5), feature_dim=4, separation=2.0, overlap=0.5, seed=0)
        means = class_means(cfg)
        axis_12 = means[2] - means[1]
        assert np.linalg.norm(axis_12) == pytest.approx(0.5 * 2.0)
        assert float(means[0] @ axis_12) == pytest.approx(0.0)

    def test_coarse_task_easier_than_fine_at_zero_overlap(self):
        # With classes 1 and 2 indistinguishable, a reference training run
        # should separate class 0 (binary accuracy) much better than it can
        # ever resolve the three classes (balanced accuracy).
        from curricula.metrics import balanced_accuracy, binary_task_metrics
        from curricula.model import TrainConfig, init, predict_proba_batch, train

        ds = synth(counts=(120, 120, 120), overlap=0.0, separation=3.0, seed=5)
        rng = np.random.default_rng(6)
        held_out = rng.permutation(len(ds))[:90]
        rest = np.setdiff1d(np.arange(len(ds)), held_out)
        train_set = ds.subset(ds.ids[rest])
        test_set = ds.subset(ds.ids[held_out])

        config = TrainConfig(learning_rate=0.1, epochs=40, batch_size=32, hidden_sizes=())
        params = init([2, 3], seed=7)
        result = train(params, train_set, train_set, [0.0] * 40, config, np.random.default_rng(8))
        probs = predict_proba_batch(result.params, test_set.features)
        binary_acc, _ = binary_task_metrics(probs, test_set.labels)
        assert binary_acc > balanced_accuracy(probs, test_set.labels)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(counts=(0, 5, 5), seed=0)
        with pytest.raises(ValueError):
            SynthConfig(counts=(5, 5, 5), noise=0.0, seed=0)
        with pytest.raises(ValueError):
            SynthConfig(counts=(5, 5, 5), overlap=1.5, seed=0)
        with pytest.raises(ValueError):
            SynthConfig(counts=(5, 5, 5), feature_dim=1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(counts=(5, 5, 5)))  # seed unset

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(counts=(20.9, 1, 30)), "counts must be three positive integers, got (20.9, 1, 30)"),
            (dict(counts=(5, True, 5)), "counts must be three positive integers, got (5, True, 5)"),
            (dict(feature_dim=2.5), "feature_dim must be an integer, got 2.5"),
            (dict(feature_dim=True), "feature_dim must be an integer, got True"),
            (dict(seed=2.5), "seed must be an integer, got 2.5"),
            (dict(noise=float("inf")), "noise must be finite, got inf"),
            (dict(counts=5), "counts must be three positive integers, got 5"),
        ],
    )
    def test_non_integer_sizes_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as excinfo:
            SynthConfig(**{"counts": (5, 5, 5), "seed": 0, **kwargs})
        assert str(excinfo.value) == message


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = synth(counts=(4, 5, 6), seed=3)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.ids, ds.ids)

    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("id,label,f1,f2\n0,0,1.5,2.0\n1,2,0.1,0.2\n")
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.feature_dim == 2
        assert ds.class_counts() == (1, 0, 1)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1,f2\n0,0,1.0,2.0\n1,1,1.0,2.0\n2,3,1.0,2.0\n")
        with pytest.raises(ParseError, match="line 4"):
            load_csv(path)

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1,f2\n0,0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)
        path.write_text("id,label,f1\n")
        with pytest.raises(ParseError, match="no samples"):
            load_csv(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1\n0,0,1.0\n1,1,abc\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_negative_id_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1\n0,0,1.0\n-4,1,2.0\n")
        with pytest.raises(ParseError, match="line 3: id must be non-negative, got -4"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,f1,f2\n0,0,1.0,2.0\n1,1,1.0,{value}\n")
        with pytest.raises(ParseError, match="line 3: features must be finite"):
            load_csv(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1\n3,0,1.0\n5,1,2.0\n3,2,3.0\n")
        with pytest.raises(ParseError, match="duplicate sample ids"):
            load_csv(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f1\n0,0,1.0\n1,7,1.0\n2,1,1.0\n3,1\n")
        with pytest.raises(ParseError, match="line 3: label must be"):
            load_csv(path)

    def test_id_beyond_int64_names_line(self, tmp_path):
        big = 2**63
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,f1\n{big - 1},0,1.0\n{big},1,1.0\n")
        with pytest.raises(ParseError, match=f"line 3: id must be at most {big - 1}, got {big}"):
            load_csv(path)
        # the line's other checks come first, and an earlier bad line still wins
        path.write_text(f"id,label,f1\n{10**20},5,1.0\n")
        with pytest.raises(ParseError, match="line 2: label must be"):
            load_csv(path)
        path.write_text(f"id,label,f1\n{10**20},0,1.0\n1,5,1.0\n")
        with pytest.raises(ParseError, match="line 2: id must be at most"):
            load_csv(path)

    def test_largest_int64_id_loads(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"id,label,f1\n{2**63 - 1},2,1.0\n")
        assert load_csv(path).ids.tolist() == [2**63 - 1]

    def test_blank_lines_alone_name_line_2_with_warnings_as_errors(self, tmp_path):
        # numpy warns that such a chunk "contained no data"; that must not escape or win
        path = tmp_path / "blank.csv"
        path.write_bytes(b"id,label,f1\r\n\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="line 2: expected 3 columns, got 0$"):
                load_csv(path)

    def test_field_beyond_the_csv_limit_still_fails_in_csv(self, tmp_path):
        # numpy has no such limit; the chunk goes to csv.reader, whose error names the line
        path = tmp_path / "big.csv"
        path.write_text("id,label,f1\n0,0,1.0\n1,1,0." + "0" * csv.field_size_limit() + "1\n2,2,1.0\n")
        with pytest.raises(ParseError, match=r"big\.csv: line 3: field larger than field limit \(\d+\)$"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("id,label,f" + "1" * csv.field_size_limit() + "\n0,0,1.0\n", "line 1: field larger than field limit"),
            # csv.reader rejects a NUL byte before Python 3.11, float from 3.11 on
            ("id,label,f1\n0,0,1.0\n1,1,1\x00\n2,2,1.0\n", "line 3: "),
        ],
        ids=["long-header-field", "nul-byte"],
    )
    def test_csv_reader_errors_name_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "odd.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=r"odd\.csv: " + re.escape(where)):
            load_csv(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("150,1,abc", "could not convert string to float: 'abc'"),
            ("", "expected 3 columns, got 0"),
            ("\x1c150,1,1.0", "invalid literal for int() with base 10: '\\x1c150'"),
        ],
    )
    def test_bad_row_after_accepted_chunks_names_its_line(self, tmp_path, monkeypatch, bad, message):
        monkeypatch.setattr(data, "_CHUNK_BYTES", 64)  # about six rows a chunk
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        rows = [f"{i},{i % 3},{i}.5" for i in range(200)]
        rows[150] = bad
        path = tmp_path / "bad.csv"
        path.write_bytes(("id,label,f1\r\n" + "\r\n".join(rows) + "\r\n").encode())
        with pytest.raises(ParseError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: line 152: {message}"
        assert len(calls) > 10  # the rows before it went through numpy, chunk by chunk

    @pytest.mark.parametrize("header", ["id,label", "label,id,f1", "id,lbl,f1", "ID,label,f1"])
    def test_header_of_the_wrong_form_names_line_1(self, tmp_path, header):
        path = tmp_path / "odd.csv"
        path.write_text(f"{header}\n0,0,1.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: line 1: header must be 'id,label,f1,...,fd', got {header!r}"

    def test_utf8_is_read_whatever_the_locale(self, tmp_path):
        path = tmp_path / "utf8.csv"
        path.write_bytes("id,label,\u00e9\r\n0,2,1.5\r\n".encode())
        # The C locale without UTF-8 mode or coercion: open() would default to ASCII.
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        env["PYTHONPATH"] = str(Path(data.__file__).parents[1])
        script = "import sys; from curricula.data import load_csv; print(load_csv(sys.argv[1]).labels.tolist())"
        run = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "[2]\n"), run.stderr

    def test_non_utf8_header_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,label,\u00e9t\u00e9\r\n0,2,1.5\r\n".encode("latin-1"))
        with pytest.raises(ParseError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: not UTF-8: can't decode byte 0xe9: invalid continuation byte"

    def test_non_utf8_byte_after_accepted_chunks_names_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_BYTES", 64)  # about six rows a chunk
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        # well past the first 8 KiB the text layer decodes at once
        rows = [f"{i},{i % 3},{i}.5" for i in range(2000)]
        path = tmp_path / "bad.csv"
        text = ("id,label,f1\r\n" + "\r\n".join(rows) + "\r\n").encode()
        at = text.index(b"1500,0,")
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(ParseError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: not UTF-8: can't decode byte 0xff: invalid start byte"
        assert len(calls) > 10  # the rows before it went through numpy, chunk by chunk


def proportional_within_one(count, expected):
    return abs(count - expected) <= 1.0


class TestStratifiedKFold:
    def test_table_sized_partitions(self):
        ds = synth(counts=TABLE_COUNTS, seed=11)
        partitions = stratified_kfold(ds, k=5, val_fraction=0.2, seed=1)
        assert len(partitions) == 5

        all_ids = set(ds.ids.tolist())
        tested = []
        for part in partitions:
            train_ids = set(part.train_ids.tolist())
            val_ids = set(part.val_ids.tolist())
            test_ids = set(part.test_ids.tolist())
            assert train_ids | val_ids | test_ids == all_ids
            assert not (train_ids & val_ids or train_ids & test_ids or val_ids & test_ids)
            tested.extend(part.test_ids.tolist())

            for c in range(3):
                n_c = TABLE_COUNTS[c]
                class_ids = set(ds.ids[ds.labels == c].tolist())
                test_c = len(test_ids & class_ids)
                assert proportional_within_one(test_c, n_c / 5)
                remaining = n_c - test_c
                val_c = len(val_ids & class_ids)
                assert proportional_within_one(val_c, remaining * 0.2)
                train_c = len(train_ids & class_ids)
                assert proportional_within_one(train_c, remaining * 0.8)

        # every sample is tested exactly once across the five partitions
        assert sorted(tested) == sorted(all_ids)

    def test_exact_divisibility(self):
        ds = synth(counts=(10, 10, 10), seed=2)
        for part in stratified_kfold(ds, k=5, seed=3):
            labels = ds.subset(part.test_ids).class_counts()
            assert labels == (2, 2, 2)

    def test_deterministic(self):
        ds = synth(counts=(25, 25, 25), seed=4)
        a = stratified_kfold(ds, k=5, seed=9)
        b = stratified_kfold(ds, k=5, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.train_ids, pb.train_ids)
            np.testing.assert_array_equal(pa.val_ids, pb.val_ids)
            np.testing.assert_array_equal(pa.test_ids, pb.test_ids)
        c = stratified_kfold(ds, k=5, seed=10)
        assert any(
            not np.array_equal(pa.test_ids, pc.test_ids) for pa, pc in zip(a, c)
        )

    def test_small_class_rejected(self):
        ds = synth(counts=(4, 10, 10), seed=5)
        with pytest.raises(ValueError, match="class 0"):
            stratified_kfold(ds, k=5, seed=0)

    def test_class_left_without_training_samples_rejected(self):
        # k=2 leaves class 0 one non-test id per fold; val_fraction 0.5 rounds it into validation
        for counts in ((2, 10, 10), (2, 2, 2)):
            ds = synth(counts=counts, seed=5)
            with pytest.raises(ValueError, match=r"k=2 and val_fraction=0\.5 leave class 0 no training samples"):
                stratified_kfold(ds, k=2, val_fraction=0.5, seed=0)
        # just below one half, that id stays in training
        ds = synth(counts=(2, 10, 10), seed=5)
        for part in stratified_kfold(ds, k=2, val_fraction=0.49, seed=0):
            assert ds.subset(part.train_ids).class_counts()[0] == 1

    def test_empty_validation_split_rejected(self):
        # 8 non-test ids per class, and int(0.05 * 8 + 0.5) == 0: no fold would validate on anything
        ds = synth(counts=(10, 10, 10), seed=5)
        with pytest.raises(ValueError, match=r"k=5 and val_fraction=0\.05 leave fold 0 no validation samples"):
            stratified_kfold(ds, k=5, val_fraction=0.05, seed=0)
        # one class rounding up to a validation sample is enough
        ds = synth(counts=(10, 10, 13), seed=5)
        for part in stratified_kfold(ds, k=5, val_fraction=0.05, seed=0):
            assert ds.subset(part.val_ids).class_counts() == (0, 0, 1)

    def test_parameter_validation(self):
        ds = synth(counts=(10, 10, 10), seed=6)
        with pytest.raises(ValueError):
            stratified_kfold(ds, k=1, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(ds, k=5, val_fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(ds, k=5, val_fraction=1.0, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(k=2.0), "fold count must be an integer, got 2.0"),
            (dict(k=True), "fold count must be an integer, got True"),
            (dict(val_fraction="0.5"), "val_fraction must be a number, got '0.5'"),
            (dict(val_fraction=float("nan")), "val_fraction must be finite, got nan"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed=-1), "seed must be at least 0, got -1"),
        ],
    )
    def test_scalar_arguments_of_the_wrong_kind_are_named(self, kwargs, message):
        ds = synth(counts=(10, 10, 10), seed=6)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stratified_kfold(ds, **{"k": 3, **kwargs})

    def test_partition_rejects_shared_and_repeated_ids(self):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            FoldPartition(0, train_ids=np.array([1, 2, 3]), val_ids=np.array([4]), test_ids=np.array([3, 5]))
        with pytest.raises(ValueError, match="pairwise disjoint"):
            FoldPartition(0, train_ids=np.array([1, 2, 2]), val_ids=np.array([4]), test_ids=np.array([5]))
        part = FoldPartition(0, train_ids=np.array([2, 1]), val_ids=np.array([], dtype=np.int64), test_ids=[5])
        assert part.train_ids.tolist() == [2, 1] and part.test_ids.tolist() == [5]

    @pytest.mark.parametrize("empty", ["train_ids", "test_ids"])
    def test_partition_needs_train_and_test_ids(self, empty):
        ids = {"train_ids": [1, 2], "val_ids": [3], "test_ids": [4]} | {empty: np.array([], dtype=np.int64)}
        with pytest.raises(ValueError, match=r"^train and test sets must be non-empty$"):
            FoldPartition(0, **ids)

    def test_partition_export(self, tmp_path):
        ds = synth(counts=(10, 10, 10), seed=7)
        partitions = stratified_kfold(ds, k=3, seed=8)
        path = tmp_path / "folds.csv"
        write_partitions_csv(partitions, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,fold_index,split"
        assert len(lines) == 1 + 3 * len(ds)
        splits = {s for _, _, s in (ln.split(",") for ln in lines[1:])}
        assert splits == {"train", "val", "test"}
