"""CLI: pretrain, partition, run, eval, report; exit codes; overrides."""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import packed
import fedjets
from fedjets import benchmarks, central, checkpoint, cli, data, experiment, metrics, nn
from fedjets import config as config_mod
from fedjets.errors import NumericError
from test_runtime import MINI


def write_mini_config(path, **extra):
    raw = {k: {kk: vv for kk, vv in v.items()} for k, v in MINI.items()}
    raw["seed"] = 5
    for k, v in extra.items():
        if k in raw and isinstance(v, dict):
            raw[k].update(v)
        else:
            raw[k] = v
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def cfg_path(tmp_path):
    return write_mini_config(tmp_path / "config.json")


class TestPartition:
    def test_inspect_prints_histogram_csv(self, cfg_path, capsys):
        rc = cli.main(["partition", "--config", str(cfg_path), "--inspect"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "client_id,kind,label,count"
        rows = [line.split(",") for line in out[1:]]
        kinds = {r[1] for r in rows}
        assert kinds == {"anchor", "normal", "test"}
        assert all(int(r[3]) > 0 for r in rows)

    def test_without_inspect_prints_summary(self, cfg_path, capsys):
        rc = cli.main(["partition", "--config", str(cfg_path)])
        assert rc == 0
        assert "anchors" in capsys.readouterr().out


class TestRun:
    def test_run_writes_artifact_layout(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        for name in ["config.echo.json", "metrics.jsonl", "metrics.csv", "state.ckpt", "comm.csv"]:
            assert (out / name).exists(), name
        assert f"# seed=5" in (out / "metrics.csv").read_text().splitlines()[0]

    def test_echoed_config_reproduces_identical_metrics(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        echoed = out1 / "config.echo.json"
        assert cli.main(["run", "--config", str(echoed), "--out", str(out2)]) == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()

    def test_set_override_applies_before_validation(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(out), "--set", "federation.rounds=2"]
        )
        assert rc == 0
        echoed = json.loads((out / "config.echo.json").read_text())
        assert echoed["federation"]["rounds"] == 2

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path):
        out = tmp_path / "s"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
        echoed = json.loads((out / "config.echo.json").read_text())
        assert echoed["seed"] == 9

    def test_run_says_when_its_common_expert_missed_the_target(self, cfg_path, tmp_path, capsys):
        # the MINI config meets its 0.8 target; with no epochs the init is kept, and the run goes on
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "met")]) == 0
        assert "pretraining target" not in capsys.readouterr().err
        sets = ["--set", "model.pretrain_max_epochs=0"]
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "missed"), *sets]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("common expert missed its pretraining target: held-out accuracy 0.")
        assert line.endswith(" < 0.8 after 0 epochs")


class TestPretrain:
    def test_chance_target_stops_immediately(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "common.ckpt"
        rc = cli.main(
            ["pretrain", "--config", str(cfg_path), "--set", "model.pretrain_target_accuracy=0.05", "--out", str(ckpt)]
        )
        assert rc == 0
        _, meta = checkpoint.load_net(ckpt)
        assert meta["epochs"] == 0

    def test_monotone_epoch_budget(self, cfg_path, tmp_path):
        low, high = tmp_path / "low.ckpt", tmp_path / "high.ckpt"
        target = "model.pretrain_target_accuracy="
        assert cli.main(["pretrain", "--config", str(cfg_path), "--set", target + "0.5", "--out", str(low)]) == 0
        assert cli.main(["pretrain", "--config", str(cfg_path), "--set", target + "0.8", "--out", str(high)]) == 0
        _, meta_low = checkpoint.load_net(low)
        _, meta_high = checkpoint.load_net(high)
        assert meta_low["epochs"] <= meta_high["epochs"]

    def test_header_accuracy_matches_reevaluation(self, cfg_path, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        sets = ["--set", "model.pretrain_target_accuracy=0.7"]
        assert cli.main(["pretrain", "--config", str(cfg_path), *sets, "--out", str(ckpt)]) == 0
        params, meta = checkpoint.load_net(ckpt)
        cfg = config_mod.load(cfg_path)
        _, valid = experiment.pretrain_split(cfg, experiment.build_datasets(cfg)[0])
        acc = central.model_accuracy(params, valid.inputs, valid.labels)
        # the checkpoint holds the float64 net pretraining scored, so the accuracy is reproduced exactly
        assert acc == meta["achieved_accuracy"]

    def test_unreachable_target_reports_and_exits_nonzero(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        sets = ["--set", "model.pretrain_target_accuracy=1.0", "--set", "model.pretrain_max_epochs=1"]
        rc = cli.main(["pretrain", "--config", str(cfg_path), *sets, "--out", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr()
        assert "not reached" in err.err
        assert ckpt.exists()  # checkpoint still written with achieved accuracy

    @pytest.mark.parametrize("command, out", [("pretrain", "c.ckpt"), ("run", "o")])
    def test_non_finite_gradient_is_exit_3_naming_the_epoch(self, cfg_path, tmp_path, capsys, command, out):
        # pretraining as `pretrain` runs it and as `run` runs it inline
        sets = ["--set", "training.lr=1e200"]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / out), *sets])
        assert rc == 3
        assert capsys.readouterr().err == "numeric error: non-finite gradient | layer=1 | pretrain | epoch 0\n"

    def test_diverging_run_prints_the_error_line_alone(self, tmp_path):
        # in a process of its own, where numpy's RuntimeWarnings would reach stderr as a user sees them
        cfg_path = tmp_path / "synth10.json"
        cfg_path.write_text(json.dumps(benchmarks.synth10_dict()))
        src = str(Path(fedjets.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "default"}
        args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", "training.lr=1e300"]
        proc = subprocess.run(
            [sys.executable, "-m", "fedjets.cli", *args], capture_output=True, text=True, env=env, timeout=300
        )
        line = "numeric error: non-finite gradient | layer=2 | pretrain | epoch 0"
        assert proc.returncode == 3
        assert proc.stderr == line + "\n"
        assert line in readme_cli_text()


class TestCommonCheckpoint:
    def test_run_from_pretrained_checkpoint_equals_inline_run(self, tmp_path):
        # `pretrain` with the config's own target and cap trains the same net
        # inline pretraining does, and the checkpoint hands it over unchanged
        cfg_path = tmp_path / "synth10.json"
        cfg_path.write_text(json.dumps(benchmarks.synth10_dict(federation={"rounds": 10})))
        ckpt = tmp_path / "common.ckpt"
        assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
        inline, loaded = tmp_path / "inline", tmp_path / "loaded"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(inline)]) == 0
        args = ["run", "--config", str(cfg_path), "--out", str(loaded), "--set", f"model.common_ckpt={ckpt}"]
        assert cli.main(args) == 0
        # a state records the config it was trained under, which names the checkpoint and its digest;
        # blank both, keep all else
        entries, blocks, meta = checkpoint.read(loaded / "state.ckpt")
        assert meta["config"]["model"]["common_ckpt"] == str(ckpt)
        assert meta["config"].pop("sha256") == {"model.common_ckpt": hashlib.sha256(ckpt.read_bytes()).hexdigest()}
        meta["config"]["model"]["common_ckpt"] = None
        checkpoint.write(loaded / "state.ckpt", entries, blocks, meta)
        for name in ["metrics.jsonl", "comm.csv", "state.ckpt"]:
            assert (loaded / name).read_bytes() == (inline / name).read_bytes(), name


class TestEval:
    def test_eval_writes_report_and_routing_csv(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = tmp_path / "report.json"
        rc = cli.main(
            ["eval", "--config", str(cfg_path), "--state", str(out / "state.ckpt"), "--report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["method"] == "fedjets"
        assert "zero_shot" in doc and "routing" in doc
        routing_csv = report.with_suffix(".routing.csv")
        lines = routing_csv.read_text().splitlines()
        assert lines[0] == "client,incorrect,correct,error_rate"

    @pytest.mark.parametrize("method", ["fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix"])
    def test_eval_global_accuracy_equals_runs_last_record(self, tmp_path, method):
        cfg_path = write_mini_config(tmp_path / "config.json", federation={"method": method})
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = tmp_path / "report.json"
        args = ["eval", "--config", str(cfg_path), "--state", str(out / "state.ckpt"), "--report", str(report)]
        assert cli.main(args) == 0
        doc = json.loads(report.read_text())
        assert doc["method"] == method
        last = metrics.read_jsonl(out / "metrics.jsonl")[-1]
        assert doc["global_accuracy"] == last.global_acc
        assert ("zero_shot" in doc) == (method == "fedjets")
        if method == "fedjets":  # zero-shot detail and routing come from the same pass
            assert doc["zero_shot"]["average_accuracy"] == doc["global_accuracy"]
            assert 1 - doc["routing"]["average_error_rate"] == last.routing_acc

    def test_eval_rejects_a_seed_other_than_the_states(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 0
        report = tmp_path / "report.json"
        args = ["eval", "--config", str(cfg_path), "--state", str(out / "state.ckpt"), "--report", str(report)]
        capsys.readouterr()
        assert cli.main([*args, "--seed", "6"]) == 2
        assert "trained under: seed: state 5, config 6" in capsys.readouterr().err
        assert not report.exists()
        assert cli.main([*args, "--seed", "5"]) == 0
        last = metrics.read_jsonl(out / "metrics.jsonl")[-1]
        assert json.loads(report.read_text())["global_accuracy"] == last.global_acc

    @pytest.mark.parametrize(
        "method, override",
        [
            ("fedjets", "federation.num_experts=2"),  # 2 experts and a 2-way gate, other test clients
            ("fedmix", "federation.num_experts=2"),  # a 2-way fresh gate would read 2 of the 3 experts
            ("fedavg", "model.expert_dims=[6,10,6]"),  # the same count, another spec
        ],
    )
    def test_eval_rejects_a_state_the_config_does_not_fit(self, tmp_path, capsys, method, override):
        cfg_path = write_mini_config(tmp_path / "config.json", federation={"method": method})
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = tmp_path / "report.json"
        args = ["eval", "--config", str(cfg_path), "--state", str(out / "state.ckpt"), "--report", str(report)]
        capsys.readouterr()
        assert cli.main([*args, "--set", override]) == 2
        assert f"{override.split('=')[0]}: state " in capsys.readouterr().err
        assert not report.exists()
        assert cli.main(args) == 0

    @pytest.mark.parametrize("method", ["fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix"])
    def test_saved_state_reloads_bit_equal(self, tmp_path, method):
        # eval scores exactly the arrays run scored: the checkpoint stores float64
        cfg = config_mod.load(write_mini_config(tmp_path / "config.json", federation={"method": method}))
        state, _, _ = experiment.run_to_directory(cfg, tmp_path / "run")
        loaded, meta = experiment.load_run_state(tmp_path / "run" / "state.ckpt")
        assert (meta["method"], loaded.round) == (method, state.round)
        assert [p.spec for p in loaded.expert_params] == [p.spec for p in state.expert_params]
        want = [p.values for p in state.expert_params]
        got = [p.values for p in loaded.expert_params]
        if state.gate_params is not None:
            assert loaded.gate_params.spec == state.gate_params.spec
            want.append(state.gate_params.values)
            got.append(loaded.gate_params.values)
        else:
            assert loaded.gate_params is None
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_eval_makes_one_gate_forward_on_the_test_set(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        state, _ = experiment.load_run_state(out / "state.ckpt")
        traces = []
        forward_trace = nn._forward_trace
        monkeypatch.setattr(nn, "_forward_trace", lambda *a: traces.append(a) or forward_trace(*a))
        report = tmp_path / "report.json"
        args = ["eval", "--config", str(cfg_path), "--state", str(out / "state.ckpt"), "--report", str(report)]
        assert cli.main(args) == 0
        # building the context pretrains and embeds with the common expert; only scoring runs the gate,
        # once, on the whole test set's embeddings, whose rows every test client routes on
        gates = [a for a in traces if a[0] == state.gate_params.spec]
        cfg = config_mod.load(cfg_path)
        test_rows = cfg.data.num_classes * cfg.data.test_per_class
        assert [a[2].shape for a in gates] == [(test_rows, state.gate_params.spec.input_dim)]
        assert json.loads(report.read_text())["zero_shot"]["per_client"]
        # and each server expert is forwarded once, on the whole test set
        for expert in state.expert_params:
            runs = [a for a in traces if np.array_equal(packed(a[1]), expert.values)]
            assert len(runs) == 1
            assert runs[0][0] == expert.spec


class TestEvalFit:
    """A state records the config it was trained under; `eval` scores it only
    under a config that agrees on every field but `federation.rounds`,
    `federation.method`, `eval` and `scenario`."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """One MINI fedjets run (seed 5): its config path, state path and last `global_acc`."""
        root = tmp_path_factory.mktemp("fit")
        cfg_path, out = write_mini_config(root / "config.json"), root / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out / "state.ckpt", metrics.read_jsonl(out / "metrics.jsonl")[-1].global_acc

    def _eval(self, run, report, *extra):
        cfg_path, state, _ = run
        return cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(report), *extra])

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--set", "data.separation=0.5"], "data.separation: state 4.0, config 0.5"),
            (["--set", "data.test_per_class=20"], "data.test_per_class: state 15, config 20"),
            (["--set", "federation.top_k=1"], "federation.top_k: state 2, config 1"),
            (["--set", "training.lr=0.01"], "training.lr: state 0.05, config 0.01"),
            (["--set", "model.pretrain_max_epochs=1"], "model.pretrain_max_epochs: state 8, config 1"),
            (["--seed", "6"], "seed: state 5, config 6"),
            (["--set", "federation.num_experts=2"], "federation.num_experts: state 3, config 2"),
        ],
        ids=["separation", "test_per_class", "top_k", "lr", "pretrain_max_epochs", "seed", "num_experts"],
    )
    def test_a_changed_field_is_exit_2_naming_it(self, run, tmp_path, capsys, monkeypatch, extra, message):
        def no_context(cfg):
            raise AssertionError("a misfit config must be rejected before build_context")

        monkeypatch.setattr(experiment, "build_context", no_context)
        capsys.readouterr()
        assert self._eval(run, tmp_path / "r.json", *extra) == 2
        assert f"trained under: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "federation.rounds=7",
            "eval.interval=1",
            'scenario={"ranges":[{"start":0,"end":4,"active_clients":[0,1,5,6,7]}]}',
            "federation.method=fedavg",  # the state's own method scores it
            "data.separation=4",  # the run wrote 4.0: parsed values agree
        ],
        ids=["rounds", "eval-interval", "scenario", "method", "int-for-float"],
    )
    def test_an_exempt_or_equal_field_still_fits(self, run, tmp_path, override):
        assert self._eval(run, tmp_path / "r.json", "--set", override) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert (doc["method"], doc["global_accuracy"]) == ("fedjets", run[2])


class TestEvalFitFiles:
    """A state trained under files named by path records each file's sha256, so
    `eval` refuses a state whose feature file or common checkpoint changed in place."""

    @pytest.fixture
    def run(self, tmp_path):
        """One MINI fedjets run on feature files, from a pretrained common checkpoint:
        its config path, state path, file paths by field and last `global_acc`."""
        files = {
            "data.train_features": tmp_path / "train.ckpt",
            "data.test_features": tmp_path / "test.ckpt",
            "model.common_ckpt": tmp_path / "common.ckpt",
        }
        for name, per_class, seed in [("data.train_features", 30, 1), ("data.test_features", 15, 2)]:
            data.save_feature_dataset(files[name], data.synth_dataset(6, 6, per_class, 4.0, seed, means_seed=0))
        features = {"train_features": str(files["data.train_features"]), "test_features": str(files["data.test_features"])}
        cfg_path = write_mini_config(tmp_path / "config.json", data=features)
        assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(files["model.common_ckpt"])]) == 0
        cfg_path = write_mini_config(cfg_path, data=features, model={"common_ckpt": str(files["model.common_ckpt"])})
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out / "state.ckpt", files, metrics.read_jsonl(out / "metrics.jsonl")[-1].global_acc

    @staticmethod
    def _eval(run, report):
        cfg_path, state, _, _ = run
        return cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(report)])

    @pytest.mark.parametrize("field", ["data.train_features", "data.test_features", "model.common_ckpt"])
    def test_a_file_rewritten_with_other_bytes_is_exit_2_naming_it(
        self, run, tmp_path, capsys, monkeypatch, field
    ):
        path = run[2][field]
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        entries, blocks, meta = checkpoint.read(path)
        checkpoint.write(path, entries, [blocks[0] + 0.25, *blocks[1:]], meta)
        after = hashlib.sha256(path.read_bytes()).hexdigest()

        def no_context(cfg):
            raise AssertionError("a misfit file must be refused before build_context")

        monkeypatch.setattr(experiment, "build_context", no_context)
        capsys.readouterr()
        assert self._eval(run, tmp_path / "r.json") == 2
        assert f"trained under: sha256.{field}: state {before}, config {after}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_files_rewritten_with_the_same_bytes_still_fit(self, run, tmp_path):
        for path in run[2].values():
            path.write_bytes(path.read_bytes())
        assert self._eval(run, tmp_path / "r.json") == 0
        assert json.loads((tmp_path / "r.json").read_text())["global_accuracy"] == run[3]


class TestReport:
    def test_single_run_best_of_last_k(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()  # drain the run command's output
        rc = cli.main(["report", str(out / "metrics.jsonl")])
        assert rc == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert table[0].startswith("file,method,rounds,best_acc_last_k")
        row = table[1].split(",")
        records = metrics.read_jsonl(out / "metrics.jsonl")
        manual = max(r.global_acc for r in records[-10:])
        assert float(row[3]) == manual

    def test_two_identical_runs_identical_rows(self, cfg_path, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["run", "--config", str(cfg_path), "--out", str(out1)])
        cli.main(["run", "--config", str(cfg_path), "--out", str(out2)])
        capsys.readouterr()  # drain the run commands' output
        cli.main(["report", str(out1 / "metrics.jsonl"), str(out2 / "metrics.jsonl")])
        lines = capsys.readouterr().out.strip().splitlines()
        a = lines[1].split(",")[1:]  # drop the file column
        b = lines[2].split(",")[1:]
        assert a == b

    def test_numpy_floats_write_the_bytes_of_python_floats(self, tmp_path):
        # metrics.csv mirrors metrics.jsonl: an np.float64 is written as the float it holds
        def record(num):
            return metrics.MetricsRecord(10, "fedjets", num(0.604), [num(0.5), num(1 / 3)], num(0.95), num(1e3), 0.0)

        for name, num in [("py", float), ("np", np.float64)]:
            metrics.write_csv(tmp_path / f"{name}.csv", [record(num), record(num)], seed=5)
            metrics.write_jsonl(tmp_path / f"{name}.jsonl", [record(num)])
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()
        assert (tmp_path / "np.jsonl").read_bytes() == (tmp_path / "py.jsonl").read_bytes()
        assert "np.float64" not in (tmp_path / "np.csv").read_text()

    def test_schema_mismatch_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"round": 1, "method": "x"}\n')
        rc = cli.main(["report", str(bad)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err


def _unchanged(nets):
    return list(nets.items())


def _without_gate(nets):
    return [(n, p) for n, p in nets.items() if n != "gate"]


def _first_expert(nets):
    return [("expert_0", nets["expert_0"])]


def _one_expert_and_its_gate(nets):
    """expert_0 and a softmax gate that scores one expert."""
    spec = nets["gate"].spec
    gate_spec = nn.NetSpec(spec.layer_dims[:-1] + (1,), spec.activations, "softmax")
    gate = nn.ParamVector(np.zeros(gate_spec.param_count()), gate_spec)
    return _first_expert(nets) + [("gate", gate)]


def _record_line(**fields):
    """A metrics record as a JSON line, with `fields` replaced."""
    record = metrics.MetricsRecord(10, "fedjets", 0.9, [0.5, 0.6], 0.95, 100.0, 50.0)
    return json.dumps({**json.loads(record.to_json_line()), **fields})


def readme_cli_text() -> str:
    """The README's CLI section, its whitespace runs made single spaces."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return " ".join(readme.split("\n## CLI\n")[1].split("\n## ")[0].split())


SYNTH10 = ["--config", "synth10.json"]
PRETRAIN_MISS = ["--set", "model.pretrain_target_accuracy=1.0", "--set", "model.pretrain_max_epochs=1"]


class TestDocumentedExits:
    """Each exit the README's CLI section shows, run as it shows it: the code,
    and its stderr line alone. The exit-3 example is
    `TestPretrain::test_diverging_run_prints_the_error_line_alone`."""

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["run", *SYNTH10, "--out", "o", "--set", "federation.top_k=6"], 2,
             "config error: federation.top_k must be at most federation.num_experts (5); got 6"),
            (["run", *SYNTH10, "--out", "o", "--set", "federation.rounds=0"], 2,
             "config error: federation.rounds must be at least 1; got 0"),
            (["report", "--last-k", "0", "metrics.jsonl"], 2, "config error: --last-k must be at least 1; got 0"),
            # refused before any file is read
            (["report", "--last-k", "0", "absent.jsonl"], 2, "config error: --last-k must be at least 1; got 0"),
            (["report", "bad.jsonl"], 4, "i/o error: bad.jsonl:2: round must be an int, got 'x'"),
            (["partition", "--config", "absent.json"], 4,
             "i/o error: [Errno 2] No such file or directory: 'absent.json'"),
            (["pretrain", *SYNTH10, "--out", "common.ckpt", *PRETRAIN_MISS], 1,
             "target 1.0 not reached within 1 epochs"),
        ],
        ids=[
            "cross-field-rule", "zero-rounds", "last-k", "last-k-absent-file", "malformed-metrics-line",
            "missing-config", "pretrain-miss",
        ],
    )
    def test_stderr_is_the_documented_line_alone(self, tmp_path, monkeypatch, capsys, argv, code, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "synth10.json").write_text(json.dumps(benchmarks.synth10_dict()))
        (tmp_path / "metrics.jsonl").write_text(_record_line() + "\n")
        (tmp_path / "bad.jsonl").write_text(_record_line() + "\n" + _record_line(round="x") + "\n")
        assert cli.main(argv) == code
        assert capsys.readouterr().err == line + "\n"
        assert line in readme_cli_text()


class TestExitCodes:
    @pytest.mark.parametrize(
        "line",
        [
            "5",
            _record_line(round="x"),
            _record_line(global_acc="abc"),
            _record_line(per_expert_acc=5),
            _record_line(routing_acc={}),
            # each field of a record that once parsed by coercion
            _record_line(round=1.7),
            _record_line(round=True),
            _record_line(method=5),
            _record_line(global_acc=True),
            _record_line(per_expert_acc="12"),
            _record_line(per_expert_acc=[0.5, False]),
            _record_line(routing_acc="NaN"),
            _record_line(routing_acc=float("nan")),
            _record_line(floats_down_cum=float("inf")),
            _record_line(floats_up_cum="50"),
        ],
        ids=[
            "not-an-object",
            "round",
            "global_acc",
            "per_expert_acc",
            "routing_acc",
            "round-float",
            "round-bool",
            "method-int",
            "global_acc-bool",
            "per_expert_acc-string",
            "per_expert_acc-bool-entry",
            "routing_acc-string",
            "routing_acc-nan",
            "floats_down_cum-inf",
            "floats_up_cum-string",
        ],
    )
    def test_malformed_metrics_record_is_exit_4(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_record_line() + "\n" + line + "\n")
        assert cli.main(["report", str(bad)]) == 4
        assert "bad.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("last_k", [0, -1])
    def test_last_k_below_one_is_exit_2(self, tmp_path, capsys, last_k):
        path = tmp_path / "metrics.jsonl"
        accs = [0.9, 0.5, 0.6]
        metrics.write_jsonl(path, [metrics.MetricsRecord(10 * i, "fedavg", a, [a], None, 0.0, 0.0) for i, a in enumerate(accs)])
        assert cli.main(["report", f"--last-k={last_k}", str(path)]) == 2
        assert f"--last-k must be at least 1; got {last_k}" in capsys.readouterr().err

    def test_scenario_id_outside_the_training_clients_is_exit_2(self, cfg_path, tmp_path, capsys):
        schedule = '{"ranges":[{"start":0,"end":4,"active_clients":[3,4,5,6,7,999,-3]}]}'
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", f"scenario={schedule}"])
        assert rc == 2
        assert "client ids [999, -3] outside [0, 8)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_test_clients_is_exit_2(self, tmp_path, capsys):
        path = write_mini_config(tmp_path / "c.json", data={"num_test_clients": 0})
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "num_test_clients" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.jsonl").exists()

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        path = write_mini_config(tmp_path / "c.json", federation={"typo_key": 1})
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err

    def test_eval_last_k_is_an_unknown_key(self, tmp_path, capsys):
        # `fedjets report --last-k` is the one last-k knob; the config key was never read
        path = write_mini_config(tmp_path / "c.json", eval={"last_k": 5})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "eval: unknown key(s) ['last_k']" in capsys.readouterr().err

    def test_invalid_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        rc = cli.main(["partition", "--config", str(path)])
        assert rc == 2

    def test_missing_config_file_is_exit_4(self, tmp_path):
        rc = cli.main(["partition", "--config", str(tmp_path / "absent.json")])
        assert rc == 4

    def test_missing_state_file_is_exit_4(self, cfg_path, tmp_path):
        rc = cli.main(
            ["eval", "--config", str(cfg_path), "--state", str(tmp_path / "no.ckpt"), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "header",
        [
            b'{"meta":{},"nets":[{"name":"expert_0"}]}',  # the version-1 header layout
            b'{"blocks":[{"name":"expert_0"}],"meta":{}}',  # a block without a net spec
            b'{"blocks":[{"name":"expert_0","net":{"activations":[],"head":"logits","layer_dims":[4]}}],"meta":{}}',
            b"[1,2,3]",  # not a JSON object
            # a valid spec of 15 parameters over an empty block
            b'{"blocks":[{"name":"expert_0","net":{"activations":[],"head":"logits","layer_dims":[4,3]}}],"meta":{}}',
        ],
        ids=["nets-header", "no-net-spec", "invalid-net-spec", "non-object", "wrong-value-count"],
    )
    def test_malformed_state_header_is_exit_4(self, cfg_path, tmp_path, header):
        state = tmp_path / "state.ckpt"
        prefix = b"FJST" + struct.pack("<HI", checkpoint.FORMAT_VERSION, len(header))
        state.write_bytes(prefix + header + struct.pack("<I", 0))
        rc = cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(tmp_path / "r.json")])
        assert rc == 4

    def test_trailing_bytes_in_state_is_exit_4(self, cfg_path, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        state = out / "state.ckpt"
        state.write_bytes(state.read_bytes() + b"\x00")
        rc = cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(tmp_path / "r.json")])
        assert rc == 4

    def test_state_without_experts_is_exit_4(self, cfg_path, tmp_path):
        state = tmp_path / "common.ckpt"  # a single-network checkpoint is no server state
        spec = nn.NetSpec.mlp([4, 3])
        checkpoint.save_net(state, nn.ParamVector(np.zeros(spec.param_count()), spec))
        rc = cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(tmp_path / "r.json")])
        assert rc == 4

    @staticmethod
    def _eval_edited_state(cfg_path, tmp_path, capsys, edit, **meta_edits):
        """`fedjets eval` on a run's state.ckpt whose networks `edit` rewrote
        and whose meta entries `meta_edits` replaced (None drops an entry);
        returns the exit code and stderr."""
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        state = out / "state.ckpt"
        nets, meta = checkpoint.load_state(state)
        meta = {k: v for k, v in {**meta, **meta_edits}.items() if v is not None}
        checkpoint.save_state(state, edit(dict(nets)), meta)
        capsys.readouterr()
        rc = cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(tmp_path / "r.json")])
        return rc, capsys.readouterr().err

    def test_state_with_fewer_experts_than_gate_outputs_is_exit_4(self, cfg_path, tmp_path, capsys):
        rc, err = self._eval_edited_state(
            cfg_path, tmp_path, capsys, lambda nets: [(n, nets[n]) for n in ("expert_0", "expert_1", "gate")]
        )
        assert rc == 4 and "gate scores 3 experts, state holds 2" in err

    def test_state_with_an_expert_of_another_spec_is_exit_4(self, cfg_path, tmp_path, capsys):
        def edit(nets):
            other = nn.NetSpec.mlp([6, 4, 6])
            expert_1 = nn.ParamVector(np.zeros(other.param_count()), other)
            return [*nets.items()][:1] + [("expert_1", expert_1)] + [*nets.items()][2:]

        rc, err = self._eval_edited_state(cfg_path, tmp_path, capsys, edit)
        assert rc == 4 and "expert_1 has another spec than expert_0" in err

    @pytest.mark.parametrize(
        "names",
        [
            ["expert_1", "expert_0", "expert_2", "gate"],
            ["expert_0", "expert_0", "expert_2", "gate"],
            ["expert_0", "expert_7", "expert_2", "gate"],
            ["expert_0", "expert_1", "expert_2", "gate", "junk"],
        ],
        ids=["swapped", "repeated", "gap", "extra-block"],
    )
    def test_state_whose_blocks_are_misnamed_is_exit_4(self, cfg_path, tmp_path, capsys, names):
        """Experts are read by name, not by position: the blocks must be
        expert_0 ... expert_{M-1} in order, then the gate."""

        def edit(nets):
            held = [*nets.values()]
            return list(zip(names, held + held[-1:]))  # "junk" repeats the gate

        rc, err = self._eval_edited_state(cfg_path, tmp_path, capsys, edit)
        assert rc == 4 and f"blocks {names} are not expert_0 ... expert_{{M-1}} in order" in err

    def test_state_with_a_logits_gate_is_exit_4(self, cfg_path, tmp_path, capsys):
        def edit(nets):
            gate = nets["gate"]
            logits = nn.NetSpec(gate.spec.layer_dims, gate.spec.activations, "logits")
            return [*nets.items()][:-1] + [("gate", nn.ParamVector(gate.values, logits))]

        rc, err = self._eval_edited_state(cfg_path, tmp_path, capsys, edit)
        assert rc == 4 and "gate has a 'logits' head" in err

    @pytest.mark.parametrize(
        "method, edit, meta_edits, message",
        [
            ("fedjets", _unchanged, {"round": "x"}, "round must be a non-negative int, got 'x'"),
            ("fedjets", _unchanged, {"round": -1}, "round must be a non-negative int, got -1"),
            ("fedjets", _unchanged, {"method": "foo"}, "unknown method 'foo'"),
            ("fedjets", _unchanged, {"method": 5}, "unknown method 5"),
            ("fedjets", _unchanged, {"config": None}, "config must be a JSON object, got None"),
            ("fedjets", _unchanged, {"config": "seed=5"}, "config must be a JSON object, got 'seed=5'"),
            ("fedjets", _unchanged, {"config": [5]}, "config must be a JSON object, got [5]"),
            ("fedjets", _without_gate, {}, "a gate is missing for method 'fedjets'"),
            ("fedjets", _one_expert_and_its_gate, {"method": "fedavg"}, "a gate is stored for method 'fedavg'"),
            ("fedjets", _without_gate, {"method": "fedprox"}, "method 'fedprox' cannot hold 3 expert(s)"),
            ("avg_ensemble", _first_expert, {}, "method 'avg_ensemble' cannot hold 1 expert(s)"),
        ],
        ids=[
            "round-not-int",
            "round-negative",
            "unknown-method",
            "method-not-a-string",
            "record-missing",
            "record-a-string",
            "record-a-list",
            "fedjets-without-gate",
            "fedavg-with-gate",
            "fedprox-with-3-experts",
            "ensemble-of-1",
        ],
    )
    def test_state_whose_meta_does_not_fit_it_is_exit_4(self, tmp_path, capsys, method, edit, meta_edits, message):
        cfg_path = write_mini_config(tmp_path / "config.json", federation={"method": method})
        rc, err = self._eval_edited_state(cfg_path, tmp_path, capsys, edit, **meta_edits)
        assert rc == 4 and message in err

    def test_non_finite_state_block_is_exit_3_naming_file_and_block(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        state = out / "state.ckpt"
        entries, blocks, meta = checkpoint.read(state)
        blocks[1][:] = np.nan
        checkpoint.write(state, entries, blocks, meta)
        capsys.readouterr()
        rc = cli.main(["eval", "--config", str(cfg_path), "--state", str(state), "--report", str(tmp_path / "r.json")])
        assert rc == 3
        assert f"{state}: block 'expert_1'" in capsys.readouterr().err

    def test_overflowing_common_expert_is_exit_3_naming_the_training_set(self, cfg_path, tmp_path, capsys):
        # finite inputs that the first layer's weights overflow: the embedding
        # is checked where it is made, and the training set, embedded first, is named
        spec = nn.NetSpec.mlp(MINI["model"]["expert_dims"])
        values = np.zeros(spec.param_count())
        values[: spec.layer_dims[0] * spec.layer_dims[1]] = 1e308
        ckpt = tmp_path / "common.ckpt"
        checkpoint.save_net(ckpt, nn.ParamVector(values, spec))
        override = f"model.common_ckpt={ckpt}"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as err:
                experiment.build_context(config_mod.load(cfg_path, [override]))
            assert (err.value.message, err.value.context) == ("non-finite network output", "forward | training set")
            capsys.readouterr()
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", override]) == 3
        assert "non-finite network output | forward | training set" in capsys.readouterr().err

    def test_overflowing_test_embedding_is_exit_3_naming_the_test_set(self, cfg_path, tmp_path, capsys, monkeypatch):
        # the test set is embedded once, as a whole: finite test inputs that the common expert's first layer
        # overflows, while the training set's embedding stays finite, name the test set
        spec = nn.NetSpec.mlp(MINI["model"]["expert_dims"])
        values = np.zeros(spec.param_count())
        values[: spec.layer_dims[0] * spec.layer_dims[1]] = 1.0
        ckpt = tmp_path / "common.ckpt"
        checkpoint.save_net(ckpt, nn.ParamVector(values, spec))
        build_datasets = experiment.build_datasets

        def huge_test_inputs(cfg):
            train_ds, test_ds = build_datasets(cfg)
            huge = np.full_like(test_ds.inputs, 1e308)
            return train_ds, data.LabeledDataset(huge, test_ds.labels, test_ds.num_classes)

        monkeypatch.setattr(experiment, "build_datasets", huge_test_inputs)
        args = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", f"model.common_ckpt={ckpt}"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(args) == 3
        assert "non-finite network output | forward | test set" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.jsonl").exists()

    def test_feature_labels_past_num_classes_is_exit_4(self, tmp_path, capsys):
        paths = {}
        for name, n in [("train", 60), ("test", 30)]:
            labels = [i % 7 for i in range(n)]  # classes 0..6, but the file says 6
            meta = {"kind": "feature_dataset", "num_classes": 6, "dim": 6, "labels": labels}
            paths[name] = tmp_path / f"{name}.ckpt"
            checkpoint.write(paths[name], [{"name": "features"}], [np.zeros(6 * n)], meta)
        cfg_path = write_mini_config(
            tmp_path / "c.json", data={"train_features": str(paths["train"]), "test_features": str(paths["test"])}
        )
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "outside [0, 6)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, header", [("train", (7, 6)), ("test", (7, 6)), ("test", (6, 8))], ids=["train", "test", "test-dim"]
    )
    def test_feature_file_unlike_the_config_is_exit_2_naming_the_file(self, tmp_path, capsys, bad, header):
        # a 7-class or dim-8 file under the 6-class, dim-6 config is refused before anything trains
        paths = {}
        for name, n in [("train", 60), ("test", 30)]:
            classes, dim = header if name == bad else (6, 6)
            labels = [i % classes for i in range(n)]
            meta = {"kind": "feature_dataset", "num_classes": classes, "dim": dim, "labels": labels}
            paths[name] = tmp_path / f"{name}.ckpt"
            checkpoint.write(paths[name], [{"name": "features"}], [np.ones(dim * n)], meta)
        cfg_path = write_mini_config(
            tmp_path / "c.json", data={"train_features": str(paths["train"]), "test_features": str(paths["test"])}
        )
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config error: {paths[bad]}: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.jsonl").exists()

    def test_non_finite_feature_block_is_exit_3_naming_file_and_block(self, tmp_path, capsys):
        paths = {}
        for name, n in [("train", 60), ("test", 30)]:
            meta = {"kind": "feature_dataset", "num_classes": 6, "dim": 6, "labels": [i % 6 for i in range(n)]}
            features = np.zeros(6 * n)
            if name == "train":
                features[7] = np.nan
            paths[name] = tmp_path / f"{name}.ckpt"
            checkpoint.write(paths[name], [{"name": "features"}], [features], meta)
        cfg_path = write_mini_config(
            tmp_path / "c.json", data={"train_features": str(paths["train"]), "test_features": str(paths["test"])}
        )
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{paths['train']}: block 'features'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["federation.rounds=-3"], "federation.rounds"),
            (["training.local_iterations=null", "training.local_epochs=-1"], "training.local_epochs"),
            (["model.expert_dims=[]"], "model.expert_dims"),
            (["model.common_dims=[]"], "model.common_dims"),
            (["data.labels_per_anchor=0"], "data.labels_per_anchor"),
            (["data.labels_per_anchor=-1"], "data.labels_per_anchor"),
            (["data.test_labels_per_client=-2"], "data.test_labels_per_client"),
            (["data.test_labels_per_client=0"], "data.test_labels_per_client"),
            (["model.gate_hidden=0"], "model.gate_hidden"),
            (["model.pretrain_max_epochs=-1"], "model.pretrain_max_epochs"),
            (["model.pretrain_target_accuracy=-0.1"], "model.pretrain_target_accuracy"),
            (["model.pretrain_target_accuracy=1.5"], "model.pretrain_target_accuracy"),
            # every run's ledger books avg_ensemble, and the bound holds whatever the method
            (["federation.ensemble_size=-1"], "federation.ensemble_size"),
            (["federation.fedprox_mu=-5"], "federation.fedprox_mu"),
        ],
        ids=[
            "rounds", "local_epochs", "expert_dims", "common_dims",
            "labels_per_anchor-0", "labels_per_anchor-neg", "test_labels_per_client-neg", "test_labels_per_client-0",
            "gate_hidden", "pretrain_max_epochs", "pretrain_target_accuracy-neg", "pretrain_target_accuracy-above-1",
            "ensemble_size-fedjets", "fedprox_mu-fedjets",
        ],
    )
    def test_invalid_override_value_semantics(self, cfg_path, tmp_path, capsys, monkeypatch, overrides, named):
        def no_context(cfg):
            raise AssertionError("an invalid value must be refused before build_context")

        monkeypatch.setattr(experiment, "build_context", no_context)
        sets = [arg for override in overrides for arg in ("--set", override)]
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *sets])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["training.lr=NaN", "training.gate_lr=Infinity", "federation.fedprox_mu=-Infinity"]
    )
    def test_non_finite_rate_is_exit_2(self, cfg_path, tmp_path, capsys, override):
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", override])
        assert rc == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "training.lr=abc",  # not JSON: kept as a string
            'training.lr="0.1"',
            "training.momentum=true",  # a bool is not a number
            "federation.rounds=2.5",
            "federation.uniform_weighting=1",
            "model.expert_dims=[6,\"8\",6]",
            "data.train_features=3",
            'scenario=[{"start":0,"end":4,"active_clients":[3,4]}]',  # a bare list of ranges, not {"ranges": [...]}
        ],
    )
    def test_mistyped_value_is_exit_2(self, cfg_path, tmp_path, capsys, override):
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", override])
        assert rc == 2
        assert override.split("=")[0] in capsys.readouterr().err

    def test_mistyped_value_in_file_is_exit_2(self, tmp_path, capsys):
        path = write_mini_config(tmp_path / "c.json", training={"lr": "0.1"})
        rc = cli.main(["partition", "--config", str(path)])
        assert rc == 2
        assert "training.lr" in capsys.readouterr().err

    def test_int_accepted_for_float(self, cfg_path, capsys):
        rc = cli.main(["partition", "--config", str(cfg_path), "--set", "training.lr=1"])
        assert rc == 0
