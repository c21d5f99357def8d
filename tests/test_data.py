import numpy as np
import pytest

from curricula.data import (
    Dataset,
    FoldPartition,
    ParseError,
    SynthConfig,
    class_means,
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

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 3]), np.array([0, 1]))  # bad label
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 1]), np.array([1, 1]))  # duplicate ids
        with pytest.raises(ValueError):
            Dataset(np.full((2, 2), np.nan), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.array([]), np.array([]))

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

    def test_partition_rejects_shared_and_repeated_ids(self):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            FoldPartition(0, train_ids=np.array([1, 2, 3]), val_ids=np.array([4]), test_ids=np.array([3, 5]))
        with pytest.raises(ValueError, match="pairwise disjoint"):
            FoldPartition(0, train_ids=np.array([1, 2, 2]), val_ids=np.array([4]), test_ids=np.array([5]))
        part = FoldPartition(0, train_ids=np.array([2, 1]), val_ids=np.array([], dtype=np.int64), test_ids=[5])
        assert part.train_ids.tolist() == [2, 1] and part.test_ids.tolist() == [5]

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
