"""Synthetic data generation and the two non-i.i.d. partition strategies."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fedjets import central, data, nn
from fedjets.errors import ArtifactError, ConfigError, NumericError


def small_ds(seed=5, per_class=40, C=6, d=8, sep=5.0):
    return data.synth_dataset(C, d, per_class, sep, seed)


class TestSynthDataset:
    def test_same_seed_bit_identical(self):
        a = data.synth_dataset(4, 8, 20, 3.0, 77)
        b = data.synth_dataset(4, 8, 20, 3.0, 77)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_separation_near_chance(self):
        # all class means coincide: nothing beats guessing on fresh data
        train = data.synth_dataset(10, 16, 100, 0.0, 1)
        test = data.synth_dataset(10, 16, 60, 0.0, 2, means_seed=1)
        spec = nn.NetSpec.mlp([16, 32, 10])
        result = central.pretrain(spec, train, test, 0.99, 15, 0.01, 0.9, 64, 3)
        assert result.accuracy < 0.2

    def test_high_separation_centrally_trainable(self):
        # recorded once: a two-layer net clears 95% at separation 10
        train = data.synth_dataset(10, 16, 200, 10.0, 11)
        test = data.synth_dataset(10, 16, 100, 10.0, 12, means_seed=11)
        spec = nn.NetSpec.mlp([16, 32, 10])
        result = central.pretrain(spec, train, test, 0.95, 30, 0.01, 0.9, 64, 3)
        assert result.accuracy > 0.95

    def test_shared_means_seed_alignment(self):
        a = data.synth_dataset(4, 8, 50, 6.0, 1, means_seed=9)
        b = data.synth_dataset(4, 8, 50, 6.0, 2, means_seed=9)
        for c in range(4):
            ca = a.inputs[a.class_index[c]].mean(axis=0)
            cb = b.inputs[b.class_index[c]].mean(axis=0)
            assert np.linalg.norm(ca - cb) < 1.5  # same mean, fresh noise

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            data.synth_dataset(1, 8, 20, 3.0, 0)
        with pytest.raises(ConfigError):
            data.synth_dataset(4, 8, 20, -1.0, 0)


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[0, 1, 5], [-1, 0, 1], [0, 1, 2]])
    def test_labels_outside_class_range_rejected(self, labels):
        with pytest.raises(ConfigError):
            data.LabeledDataset(np.zeros((3, 2)), labels, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        x = np.zeros((2, 2))
        x[1, 0] = bad
        with pytest.raises(NumericError, match="non-finite"):
            data.LabeledDataset(x, [0, 1], 2)


class TestPartitionQuantity:
    def test_exact_label_count_per_shard(self):
        ds = small_ds()
        for seed in range(6):
            shards = data.partition_quantity(ds, 12, 3, seed)
            for shard in shards:
                assert np.count_nonzero(shard.label_histogram) == 3

    def test_paper_setting_four_labels(self):
        ds = data.synth_dataset(10, 8, 100, 4.0, 3)
        shards = data.partition_quantity(ds, 100, 4, 0, samples_per_client=8)
        assert len(shards) == 100
        assert all(np.count_nonzero(s.label_histogram) == 4 for s in shards)

    def test_full_label_coverage_when_k_equals_c(self):
        ds = small_ds()
        shards = data.partition_quantity(ds, 5, ds.num_classes, 1)
        for shard in shards:
            assert shard.label_set == frozenset(range(ds.num_classes))

    def test_membership_in_dataset(self):
        ds = small_ds()
        shards = data.partition_quantity(ds, 10, 2, 4)
        for shard in shards:
            assert np.all(shard.indices >= 0) and np.all(shard.indices < len(ds))
            # histogram consistent with a direct scan
            scan = np.bincount(ds.labels[shard.indices], minlength=ds.num_classes)
            assert np.array_equal(scan, shard.label_histogram)
            # unique within one shard
            assert len(np.unique(shard.indices)) == len(shard.indices)

    def test_too_many_labels_rejected(self):
        ds = small_ds()
        with pytest.raises(ConfigError):
            data.partition_quantity(ds, 4, ds.num_classes + 1, 0)

    def test_without_replacement_no_sample_sharing(self):
        ds = small_ds(per_class=60)
        shards = data.partition_quantity(
            ds, 6, 2, 9, with_replacement=False, samples_per_client=20
        )
        seen = np.concatenate([s.indices for s in shards])
        assert len(np.unique(seen)) == len(seen)

    def test_without_replacement_demand_checked(self):
        ds = small_ds(per_class=10)
        with pytest.raises(ConfigError):
            data.partition_quantity(
                ds, 30, 2, 9, with_replacement=False, samples_per_client=20
            )

    def test_deterministic(self):
        ds = small_ds()
        a = data.partition_quantity(ds, 8, 2, 42)
        b = data.partition_quantity(ds, 8, 2, 42)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)


class TestPartitionDirichlet:
    def test_budget_conservation_exact(self):
        ds = small_ds()
        shards = data.partition_dirichlet(ds, 9, 0.1, 3)
        totals = np.zeros(ds.num_classes, dtype=int)
        for s in shards:
            totals += s.label_histogram
        expect = np.array([idx.size for idx in ds.class_index])
        assert np.array_equal(totals, expect)

    def test_huge_alpha_near_uniform(self):
        ds = data.synth_dataset(5, 8, 200, 4.0, 6)
        shards = data.partition_dirichlet(ds, 8, 1e6, 1)
        counts = np.stack([s.label_histogram for s in shards])
        for c in range(ds.num_classes):
            col = counts[:, c]
            assert col.max() / max(col.min(), 1) < 1.5

    def test_small_alpha_concentrates_labels(self):
        # seed-averaged: median shard puts >= 60% of its mass on <= 2 labels
        ds = data.synth_dataset(10, 8, 100, 4.0, 8)
        medians = []
        for seed in range(20):
            shards = data.partition_dirichlet(ds, 12, 0.1, seed)
            top2 = []
            for s in shards:
                h = np.sort(s.label_histogram)[::-1]
                top2.append(h[:2].sum() / h.sum())
            medians.append(np.median(top2))
        assert float(np.mean(medians)) >= 0.6

    def test_no_empty_shards(self):
        ds = small_ds()
        for seed in range(10):
            shards = data.partition_dirichlet(ds, 15, 0.05, seed)
            assert all(len(s) > 0 for s in shards)

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            data.partition_dirichlet(small_ds(), 5, 0.0, 0)


class TestAnchors:
    def test_disjoint_partition_of_labels(self):
        ds = data.synth_dataset(10, 8, 50, 4.0, 2)
        anchors = data.make_anchor_shards(ds, 5, 2, 17, disjoint=True)
        assert [a.assigned_expert for a in anchors] == [0, 1, 2, 3, 4]
        union = set()
        for a in anchors:
            assert len(a.label_set) == 2
            assert not (union & a.label_set)
            union |= a.label_set
        assert union == set(range(10))

    def test_hundred_class_disjoint_groups(self):
        ds = data.synth_dataset(100, 8, 4, 4.0, 3)
        anchors = data.make_anchor_shards(ds, 10, 10, 5, disjoint=True)
        sets = [a.label_set for a in anchors]
        for i in range(10):
            assert len(sets[i]) == 10
            for j in range(i + 1, 10):
                assert not (sets[i] & sets[j])

    def test_infeasible_disjoint_rejected(self):
        ds = small_ds(C=6)
        with pytest.raises(ConfigError):
            data.make_anchor_shards(ds, 4, 2, 0, disjoint=True)

    def test_dirichlet_anchors_allow_overlap(self):
        ds = data.synth_dataset(10, 8, 50, 4.0, 2)
        anchors = data.make_anchor_shards(ds, 5, 2, 23, disjoint=False, samples_per_anchor=60)
        assert all(len(a) > 0 for a in anchors)
        overlaps = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if anchors[i].label_set & anchors[j].label_set
        )
        assert overlaps > 0  # with alpha=0.1 draws over 10 labels, this seed overlaps

    @pytest.mark.parametrize("disjoint, size", [(True, 1), (True, 0), (True, -5), (False, 0), (False, -5)])
    def test_shard_size_below_its_labels_rejected(self, disjoint, size):
        # a disjoint anchor needs a sample of each of its 2 labels, a Dirichlet anchor one sample
        ds = data.synth_dataset(10, 8, 50, 4.0, 2)
        with pytest.raises(ConfigError, match=f"samples_per_anchor {size} smaller than {2 if disjoint else 1}"):
            data.make_anchor_shards(ds, 5, 2, 23, disjoint=disjoint, samples_per_anchor=size)
        smallest = data.make_anchor_shards(ds, 5, 2, 23, disjoint=disjoint, samples_per_anchor=2 if disjoint else 1)
        assert [len(a) for a in smallest] == [2 if disjoint else 1] * 5


def shard_digest(shards) -> str:
    """sha256 of each shard's client id and row indices, in shard order."""
    h = hashlib.sha256()
    for s in shards:
        h.update(np.int64(s.client_id).tobytes())
        h.update(s.indices.astype("<i8").tobytes())
    return h.hexdigest()


class TestPinnedDraws:
    """The shard rows of draws the synth-10 digests do not cover, pinned to
    the bytes of a seeded draw: the Dirichlet anchors (one with a label pool
    smaller than its share) and the quantity partition without replacement."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda ds: data.make_anchor_shards(ds, 5, 2, seed=4, disjoint=False),
                "5915614b294f0006b5683a9989ecccf722a104eb37fd1c39d99fdf93a81746d1",
            ),
            (
                lambda ds: data.make_anchor_shards(ds, 5, 2, seed=4, disjoint=False, samples_per_anchor=500),
                "bcb9096d5a39d0846e73f433301fc7cc8207ef141435d0640b16c48e3060f2af",
            ),
            (
                lambda ds: data.partition_quantity(ds, 6, 3, seed=5, with_replacement=False, samples_per_client=40),
                "966466ff36046585eadd155b11e5cb1c3913d5eefd02defa14af43984bd7f896",
            ),
        ],
        ids=["dirichlet-anchors", "dirichlet-anchors-500", "quantity-without-replacement"],
    )
    def test_rows_equal_the_pinned_draw(self, make, digest):
        ds = data.synth_dataset(10, 8, 60, 4.0, 3)
        assert shard_digest(make(ds)) == digest


class TestTestClients:
    def test_label_sets_unseen(self):
        ds = data.synth_dataset(10, 8, 60, 4.0, 4)
        training = data.partition_quantity(ds, 20, 4, 1) + data.make_anchor_shards(ds, 5, 2, 2)
        test_ds = data.synth_dataset(10, 8, 30, 4.0, 5, means_seed=4)
        tests = data.make_test_clients(test_ds, 8, 2, 3, training, start_id=100)
        seen = {s.label_set for s in training}
        for t in tests:
            assert t.label_set not in seen
            assert t.kind == data.KIND_TEST
            # exhaustive comparison against every training shard
            for s in training:
                assert t.label_set != s.label_set

    def test_deterministic(self):
        ds = data.synth_dataset(8, 8, 40, 4.0, 6)
        training = data.partition_quantity(ds, 10, 3, 1)
        a = data.make_test_clients(ds, 4, 2, 9, training)
        b = data.make_test_clients(ds, 4, 2, 9, training)
        for x, y in zip(a, b):
            assert np.array_equal(x.indices, y.indices)

    def test_single_unseen_combination_found(self):
        ds = data.synth_dataset(4, 8, 20, 4.0, 7)
        # training covers one combination in a 2-of-4 label space
        training = data.partition_quantity(ds, 1, 2, 3)
        tests = data.make_test_clients(ds, 1, 2, 11, training)
        assert tests[0].label_set != training[0].label_set

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_shard_size_below_its_labels_rejected(self, size):
        ds = data.synth_dataset(10, 8, 60, 4.0, 4)
        training = data.partition_quantity(ds, 20, 4, 1)
        with pytest.raises(ConfigError, match=f"samples_per_client {size} smaller than labels_per_client"):
            data.make_test_clients(ds, 3, 2, 3, training, samples_per_client=size)
        smallest = data.make_test_clients(ds, 3, 2, 3, training, samples_per_client=2)
        assert [len(t) for t in smallest] == [2, 2, 2] and all(len(t.label_set) == 2 for t in smallest)

    def test_exhaustion_is_config_error(self):
        ds = data.synth_dataset(2, 8, 20, 4.0, 8)
        training = data.partition_quantity(ds, 1, 2, 3)  # the only 2-of-2 combo
        with pytest.raises(ConfigError, match=f"after {data.TEST_LABEL_SET_TRIES} tries"):
            data.make_test_clients(ds, 1, 2, 0, training)


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        ds = small_ds(per_class=12)
        path = tmp_path / "features.ckpt"
        data.save_feature_dataset(path, ds)
        loaded = data.load_feature_dataset(path)
        assert loaded.num_classes == ds.num_classes
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()  # float64 blocks, bit for bit

    def test_wrong_kind_rejected(self, tmp_path):
        from fedjets import checkpoint

        spec = nn.NetSpec.mlp([4, 3])
        params = nn.ParamVector(np.zeros(spec.param_count()), spec)
        path = tmp_path / "net.ckpt"
        checkpoint.save_net(path, params)
        with pytest.raises(ArtifactError):
            data.load_feature_dataset(path)

    def test_header_without_labels_rejected(self, tmp_path):
        from fedjets import checkpoint

        path = tmp_path / "features.ckpt"
        meta = {"kind": "feature_dataset", "dim": 2, "num_classes": 3}
        checkpoint.write(path, [{"name": "features"}], [np.zeros(6)], meta)
        with pytest.raises(ArtifactError):
            data.load_feature_dataset(path)

    def test_labels_past_num_classes_rejected(self, tmp_path):
        from fedjets import checkpoint

        path = tmp_path / "features.ckpt"
        meta = {"kind": "feature_dataset", "dim": 2, "num_classes": 2, "labels": [0, 1, 2]}
        checkpoint.write(path, [{"name": "features"}], [np.zeros(6)], meta)
        with pytest.raises(ArtifactError, match=r"outside \[0, 2\)"):
            data.load_feature_dataset(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"labels": [0.5, 1.5, 0.0]}, "labels, dim and num_classes must be JSON ints"),
            ({"labels": [0, True, 1]}, "labels, dim and num_classes must be JSON ints"),
            ({"dim": 2.0}, "labels, dim and num_classes must be JSON ints"),
            ({"num_classes": "2"}, "labels, dim and num_classes must be JSON ints"),
            ({"labels": [0, 2**70, 1]}, "malformed feature dataset"),
        ],
        ids=["float-labels", "bool-label", "float-dim", "string-num-classes", "label-past-int64"],
    )
    def test_header_numbers_must_be_json_ints(self, tmp_path, entry, message):
        """Nothing is coerced: a header that int() would read is still rejected,
        and so is a label no int64 holds."""
        from fedjets import checkpoint

        path = tmp_path / "features.ckpt"
        meta = {"kind": "feature_dataset", "dim": 2, "num_classes": 2, "labels": [0, 1, 1], **entry}
        checkpoint.write(path, [{"name": "features"}], [np.zeros(6)], meta)
        with pytest.raises(ArtifactError, match=message):
            data.load_feature_dataset(path)

    def test_non_finite_feature_is_numeric_error_naming_the_block(self, tmp_path):
        from fedjets import checkpoint

        path = tmp_path / "features.ckpt"
        meta = {"kind": "feature_dataset", "dim": 2, "num_classes": 2, "labels": [0, 1, 1]}
        features = np.zeros(6)
        features[3] = np.nan
        checkpoint.write(path, [{"name": "features"}], [features], meta)
        with pytest.raises(NumericError) as err:
            data.load_feature_dataset(path)
        assert err.value.context == f"{path}: block 'features'"

    def test_experiment_ingests_feature_files(self, tmp_path):
        from fedjets import benchmarks, experiment

        train = data.synth_dataset(10, 16, 30, 4.0, 1)
        test = data.synth_dataset(10, 16, 15, 4.0, 2, means_seed=1)
        tr_path, te_path = tmp_path / "train.ckpt", tmp_path / "test.ckpt"
        data.save_feature_dataset(tr_path, train)
        data.save_feature_dataset(te_path, test)
        cfg = benchmarks.synth10_config(
            data={
                "train_features": str(tr_path),
                "test_features": str(te_path),
                "num_clients": 12,
                "num_test_clients": 2,
            },
            model={"pretrain_max_epochs": 3},
            federation={"rounds": 2, "anchors_per_round": 2, "normals_per_round": 2},
            training={"local_iterations": 1},
            eval={"interval": 2},
        )
        ctx = experiment.build_context(cfg)
        assert len(ctx.train_ds) == 300
        state, history, _ = experiment.run_training(ctx)
        assert history  # the run completes on ingested features

    def test_pretraining_early_stops_on_ingested_rows(self, tmp_path):
        """The held-out split behind the pretraining early stop comes from
        the ingested training features, not from the config's generator."""
        from fedjets import benchmarks, experiment

        # class means unrelated to the ones synth10 derives from its seed
        train = data.synth_dataset(10, 16, 200, 4.0, 11, means_seed=7)
        test = data.synth_dataset(10, 16, 100, 4.0, 12, means_seed=7)
        tr_path, te_path = tmp_path / "train.ckpt", tmp_path / "test.ckpt"
        data.save_feature_dataset(tr_path, train)
        data.save_feature_dataset(te_path, test)
        cfg = benchmarks.synth10_config(
            data={"train_features": str(tr_path), "test_features": str(te_path)}
        )
        train_ds, test_ds = experiment.build_datasets(cfg)
        common, meta = experiment.build_common(cfg, train_ds)
        assert meta["achieved_accuracy"] >= cfg.model.pretrain_target_accuracy
        assert meta["epochs"] < cfg.model.pretrain_max_epochs

        fit, valid = experiment.pretrain_split(cfg, train_ds)
        fit_rows = {row.tobytes() for row in fit.inputs}
        valid_rows = {row.tobytes() for row in valid.inputs}
        assert fit_rows.isdisjoint(valid_rows)
        assert len(fit_rows | valid_rows) == len(train_ds)
        held_out_acc = central.model_accuracy(common.params, valid.inputs, valid.labels)
        assert meta["achieved_accuracy"] == held_out_acc
        assert central.model_accuracy(common.params, test_ds.inputs, test_ds.labels) >= 0.9
