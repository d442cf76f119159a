"""CLI: pretrain, partition, run, eval, report; exit codes; overrides."""

from __future__ import annotations

import json

import pytest

from fedjets import central, checkpoint, cli, experiment, metrics
from fedjets import config as config_mod
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


class TestPretrain:
    def test_chance_target_stops_immediately(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "common.ckpt"
        rc = cli.main(
            ["pretrain", "--config", str(cfg_path), "--target-acc", "0.05", "--out", str(ckpt)]
        )
        assert rc == 0
        _, _, meta = checkpoint.load_net(ckpt)
        assert meta["epochs"] == 0

    def test_monotone_epoch_budget(self, cfg_path, tmp_path):
        low, high = tmp_path / "low.ckpt", tmp_path / "high.ckpt"
        assert cli.main(["pretrain", "--config", str(cfg_path), "--target-acc", "0.5", "--out", str(low)]) == 0
        assert cli.main(["pretrain", "--config", str(cfg_path), "--target-acc", "0.8", "--out", str(high)]) == 0
        _, _, meta_low = checkpoint.load_net(low)
        _, _, meta_high = checkpoint.load_net(high)
        assert meta_low["epochs"] <= meta_high["epochs"]

    def test_header_accuracy_matches_reevaluation(self, cfg_path, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert cli.main(["pretrain", "--config", str(cfg_path), "--target-acc", "0.7", "--out", str(ckpt)]) == 0
        spec, params, meta = checkpoint.load_net(ckpt)
        cfg = config_mod.load(cfg_path)
        _, valid = experiment.pretrain_split(cfg, experiment.build_datasets(cfg)[0])
        acc = central.model_accuracy(spec, params, valid.inputs, valid.labels)
        # float32 storage perturbs the net slightly; re-evaluation must agree closely
        assert abs(acc - meta["achieved_accuracy"]) < 0.02

    def test_unreachable_target_reports_and_exits_nonzero(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        rc = cli.main(
            ["pretrain", "--config", str(cfg_path), "--target-acc", "1.0", "--epochs", "1", "--out", str(ckpt)]
        )
        assert rc == 1
        err = capsys.readouterr()
        assert "not reached" in err.err
        assert ckpt.exists()  # checkpoint still written with achieved accuracy


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
        assert doc["global_accuracy"] == metrics.read_jsonl(out / "metrics.jsonl")[-1].global_acc
        assert ("zero_shot" in doc) == (method == "fedjets")


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

    def test_schema_mismatch_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"round": 1, "method": "x"}\n')
        rc = cli.main(["report", str(bad)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err


class TestExitCodes:
    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        path = write_mini_config(tmp_path / "c.json", federation={"typo_key": 1})
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err

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

    def test_invalid_override_value_semantics(self, cfg_path, tmp_path, capsys):
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", "federation.rounds=-3"]
        )
        assert rc == 2
