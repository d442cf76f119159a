"""Command-line interface: pretrain, partition, run, eval, report. The
README's "CLI" section states each command's exits and stderr lines."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, config as config_mod, evaluation, experiment, metrics
from .errors import ArtifactError, ConfigError, NumericError, ProtocolError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_config(args) -> config_mod.RunConfig:
    return config_mod.load(args.config, args.set or (), args.seed)


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    target = cfg.model.pretrain_target_accuracy
    train_ds, _ = experiment.build_datasets(cfg)
    result = experiment.pretrain_common(cfg, train_ds)
    meta = {
        "achieved_accuracy": result.accuracy,
        "target_accuracy": target,
        "epochs": result.epochs,
        "seed": cfg.seed,
    }
    checkpoint.save_net(args.out, result.params, meta)
    print(f"pretrained common expert: accuracy={result.accuracy:.4f} epochs={result.epochs} -> {args.out}")
    if not result.reached_target:
        print(f"target {target} not reached within {result.epochs} epochs", file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    train_ds, test_ds = experiment.build_datasets(cfg)
    anchors, normals, tests = experiment.build_shards(cfg, train_ds, test_ds)
    if args.inspect:
        print("client_id,kind,label,count")
        for shard in anchors + normals + tests:
            for label, count in enumerate(shard.label_histogram):
                if count > 0:
                    print(f"{shard.client_id},{shard.kind},{label},{count}")
    else:
        print(
            f"partitioned: {len(anchors)} anchors, {len(normals)} normal clients, "
            f"{len(tests)} test clients (seed={cfg.seed})"
        )
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args)
    experiment.run_to_directory(cfg, args.out)
    print(f"run complete: method={cfg.federation.method} rounds={cfg.federation.rounds} -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    state, state_meta = experiment.load_run_state(args.state)
    experiment.check_fit(state_meta, cfg)  # before build_context: a misfit config costs no pretraining
    ctx = experiment.build_context(cfg)
    method = state_meta["method"]
    scores = evaluation.score_test_clients(ctx, state, method)
    report: dict = {"method": method, "seed": cfg.seed, "round": state.round, "global_accuracy": scores.global_acc}
    if scores.selections is not None:  # FedJETs: each client's route
        report["zero_shot"] = {
            "average_accuracy": scores.global_acc,
            "per_client": {
                str(cid): {
                    "accuracy": acc,
                    "selected_experts": list(scores.selections[cid]),
                    "chosen_expert_per_sample": scores.chosen_experts[cid].tolist(),
                }
                for cid, acc in scores.per_client_accuracy.items()
            },
        }
        report["routing"] = None  # unless the anchors give a label -> expert ground truth for every test label
        if (routing := scores.routing) is not None:
            report["routing"] = {"average_error_rate": routing.average_error_rate, "rows": routing.rows}
            Path(args.report).with_suffix(".routing.csv").write_text(routing.to_csv())
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"evaluation report -> {args.report}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.last_k < 1:
        raise ConfigError(f"--last-k must be at least 1; got {args.last_k}")
    rows = metrics.report_rows(args.metrics, args.last_k)
    text = metrics.render_report_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedjets",
        description="Federated mixture-of-experts simulator with gated expert dispatch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", action="append", metavar="dot.path=value", help="override a config field")

    p = sub.add_parser("pretrain", help="centrally pretrain the common expert")
    add_common(p)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("partition", help="build client shards and inspect label histograms")
    add_common(p)
    p.add_argument("--inspect", action="store_true", help="print per-client label histograms as CSV")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("run", help="run federated training")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="zero-shot evaluation of a saved state")
    add_common(p)
    p.add_argument("--state", required=True, help="state.ckpt from a run")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="comparison table across runs' metrics files")
    p.add_argument("metrics", nargs="+", help="metrics.jsonl files")
    p.add_argument("--last-k", type=int, default=10, help="evaluations considered for best accuracy")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # nn.Scan names a non-finite value, as exit 3
            return args.func(args)
    except (ConfigError, ProtocolError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArtifactError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
