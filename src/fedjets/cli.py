"""Command-line interface: pretrain, partition, run, eval, report.

All commands are driven by one JSON config; --set dot.path=value overrides
individual fields before validation. Exit codes: 0 success, 2 config
error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import central, checkpoint, config as config_mod, evaluation, experiment, metrics, nn
from .errors import ArtifactError, ConfigError, NumericError, ProtocolError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_config(args) -> config_mod.RunConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ArtifactError(f"cannot read config {args.config}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.config}: config root must be a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects dot.path=value, got {item!r}")
        dotted, value = item.split("=", 1)
        config_mod.apply_override(raw, dotted, value)
    if args.seed is not None:
        raw["seed"] = args.seed
    return config_mod.from_dict(raw)


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    target = args.target_acc if args.target_acc is not None else cfg.model.pretrain_target_accuracy
    train_ds, _ = experiment.build_datasets(cfg)
    fit_ds, valid_ds = experiment.pretrain_split(cfg, train_ds)
    spec = nn.NetSpec.mlp(cfg.model.common_dims or cfg.model.expert_dims)
    result = central.pretrain(
        spec,
        fit_ds,
        valid_ds,
        target,
        args.epochs if args.epochs is not None else cfg.model.pretrain_max_epochs,
        cfg.training.lr,
        cfg.training.momentum,
        cfg.training.batch_size,
        experiment.derive_seed(cfg.seed, "pretrain"),
    )
    meta = {
        "achieved_accuracy": result.accuracy,
        "target_accuracy": target,
        "epochs": result.epochs,
        "seed": cfg.seed,
    }
    checkpoint.save_net(args.out, spec, result.params, meta)
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
    print(f"run complete: method={cfg.federation.method} rounds={cfg.rounds} -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    state, state_meta = experiment.load_run_state(args.state)
    ctx = experiment.build_context(cfg)
    method = state_meta.get("method", cfg.federation.method)
    report: dict = {
        "method": method,
        "seed": cfg.seed,
        "round": state.round,
        "global_accuracy": evaluation.global_accuracy(ctx, state, method),
    }
    if state.gate_params is not None:
        zs = evaluation.zero_shot_eval(
            state, ctx.common, ctx.test_shards, ctx.test_ds, cfg.top_k, cache=ctx.test_cache
        )
        report["zero_shot"] = zs.to_dict()
        routing = evaluation.routing_of(ctx, state)
        if routing is None:
            report["routing"] = None  # disabled: no label -> expert ground truth for the test labels
        else:
            report["routing"] = {
                "average_error_rate": routing.average_error_rate,
                "rows": routing.rows,
            }
            Path(args.report).with_suffix(".routing.csv").write_text(routing.to_csv())
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"evaluation report -> {args.report}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = metrics.report_rows(args.metrics, last_k=args.last_k)
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
    p.add_argument("--target-acc", type=float, default=None, help="held-out accuracy target")
    p.add_argument("--epochs", type=int, default=None, help="epoch cap")
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
