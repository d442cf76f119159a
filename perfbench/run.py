"""fedjets benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload fedjets-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/` of
that checkout and nowhere else. With --trace 0 the run is untraced and
reports the end-to-end metrics. With --trace 1 the timed phase is split in
two halves, untraced then traced, and the run reports the per-layer
metrics, including the traced half's time over the untraced half's
(`trace_overhead`). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile

BLAS_THREADS = 1  # more BLAS threads make these tiny matmuls slower and bimodal
# Seconds the calibration kernel (workloads.calibrate) took on the machine the
# baseline was recorded on; timings are reported as if measured there.
CALIBRATION_S = 0.005
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def import_fedjets():
    """Import fedjets from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    package_dir = os.path.join(src, "fedjets")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit(f"perfbench: no fedjets sources under {src}")
    sys.path.insert(0, src)
    fedjets = importlib.import_module("fedjets")
    if os.path.dirname(os.path.abspath(fedjets.__file__)) != package_dir:
        raise SystemExit(f"perfbench: imported fedjets from {fedjets.__file__}, not {package_dir}")
    return fedjets


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def scaled_op_s(phase) -> list[float]:
    """Each operation's seconds as if the calibration kernel had taken
    CALIBRATION_S at the time: divided by the median of the five
    calibrations nearest to it (its own, run just before it, two before and
    two after), which follows the machine's drift and smooths the noise of
    one short calibration."""
    cal = phase.cal_s
    return [op * CALIBRATION_S / median(cal[max(0, i - 2) : i + 3]) for i, op in enumerate(phase.op_s)]


def end_to_end(setup_times, setup_cal_s, phase) -> dict:
    """Times are scaled to a machine on which the calibration kernel takes
    CALIBRATION_S: set-up by the kernel's median before the builds, each
    operation by the calibrations around it."""
    setup_scale = CALIBRATION_S / median(setup_cal_s)
    op_s = scaled_op_s(phase)
    print(
        f"# unscaled: setup_s {median(setup_times):.6g}, op_ms {1000 * median(phase.op_s):.6g}, "
        f"samples_per_s {sum(phase.op_samples) / sum(phase.op_s):.6g}; calibration median "
        f"{1000 * median(setup_cal_s):.4g} ms (set-up), {1000 * median(phase.cal_s):.4g} ms (operations)"
    )
    return {
        "setup_s": (median(setup_times) * setup_scale, "s"),
        "op_ms": (1000.0 * median(op_s), "ms"),
        "samples_per_s": (sum(phase.op_samples) / sum(op_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def op_tail(phase) -> tuple[float, str]:
    """The highest percentile of the operation times that has at least ten
    samples beyond it (the maximum when there are too few), scaled."""
    ordered = sorted(scaled_op_s(phase))
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    print(f"# op_ms_tail is p{100.0 * (i + 1) / n:.1f} of {n} operations")
    return 1000.0 * ordered[i], "ms"


SETUP_FUNCTIONS = (
    "experiment.build_datasets",
    "experiment.build_shards",
    "experiment.build_common",
    "central.pretrain",
    "gating.build_embedding_cache",
)
OP_FUNCTIONS = (
    "runtime.plan_round",
    "runtime.anchor_client_update",
    "runtime.normal_client_update",
    "runtime.mixture_loss_and_grads",
    "runtime.aggregate",
    "gating.select_topk",
    "gating.gate_independent_loss_grad",
    "baselines.fedavg_like_round",
    "baselines.ensemble_round",
    "baselines.fedmix_round",
    "baselines.fedmix_client_update",
    "nn.forward",
    "nn.loss_and_grad",
    "nn.backward_from_output_grad",
    "nn.sgdm_step",
    "nn.spec_hash",
    "evaluation.evaluate_round",
    "evaluation.zero_shot_eval",
    "evaluation.per_sample_routing_report",
    "gating.gate_scores",
    "gating.embed_inputs",
    "checkpoint.load_state",
    "checkpoint.save_state",
)


def per_layer(methods, record, setup_cal_s, setup_profile, op_profile, prep, untraced, traced) -> dict:
    """Set-up layers per traced build; everything else per traced operation.
    Times are scaled like the end-to-end ones, each by the calibration of the
    phase it was measured in (preparation rounds by set-up's)."""
    ops = len(traced.op_s)
    setup_ms = 1000.0 * CALIBRATION_S / median(setup_cal_s)
    traced_ms = 1000.0 * CALIBRATION_S / median(traced.cal_s)
    untraced_ms = 1000.0 * CALIBRATION_S / median(untraced.cal_s)
    out = {}
    for name in SETUP_FUNCTIONS:
        out[f"{name}.calls"] = (setup_profile.calls[name], "calls/setup")
        out[f"{name}.self_ms"] = (setup_ms * setup_profile.self_s[name], "ms/setup")
    data = [name for name in setup_profile.calls if name.startswith("data.")]
    out["data.calls"] = (sum(setup_profile.calls[n] for n in data), "calls/setup")
    out["data.self_ms"] = (setup_ms * sum(setup_profile.self_s[n] for n in data), "ms/setup")
    out["central.pretrain.epochs"] = (setup_profile.counters["central.pretrain.epochs"], "epochs")
    # pretraining's own self time is small: its engine calls are its children
    out["central.pretrain.total_ms"] = (setup_ms * setup_profile.total_s["central.pretrain"], "ms/setup")
    for name in OP_FUNCTIONS:
        out[f"{name}.calls"] = (op_profile.calls[name] / ops, "calls/op")
        out[f"{name}.self_ms"] = (traced_ms * op_profile.self_s[name] / ops, "ms/op")
    for m in methods:
        out[f"evaluation.evaluate_round.{m}.self_ms"] = (
            traced_ms * op_profile.self_s[f"evaluation.evaluate_round.{m}"] / ops,
            "ms/op",
        )
    aggregates = op_profile.calls["runtime.aggregate"]
    packets = op_profile.counters["runtime.aggregate.packets"]
    out["runtime.aggregate.packets"] = (packets / aggregates if aggregates else 0.0, "packets/call")
    for name, metric in (("nn.forward", "forward"), ("nn.backward_from_output_grad", "backward")):
        out[f"runtime.mixture_loss_and_grads.{metric}_per_call"] = (
            op_profile.per_call_in_mixture(name),
            "calls/call",
        )
    gflop = op_profile.counters["nn.flop"] / 1e9
    engine_s = traced_ms * op_profile.engine_s / 1000.0
    out["nn.gflop"] = (gflop / ops, "GFLOP/op")
    out["nn.gflops_per_s"] = (gflop / engine_s if engine_s else 0.0, "GFLOP/s")
    for m in methods:
        if untraced.round_s.get(m):
            round_ms = untraced_ms * median(untraced.round_s[m])
        else:
            round_ms = setup_ms * median(prep.round_s.get(m, []))
        out[f"round_ms.{m}"] = (round_ms, "ms")
        out[f"eval_ms.{m}"] = (untraced_ms * median(untraced.eval_s.get(m, [])), "ms")
    # the state criteria 2 and 3 are checked on, so that runs of any seed compare
    out["zeroshot_acc"] = (record.global_acc if record else 0.0, "fraction")
    out["routing_acc"] = ((record.routing_acc or 0.0) if record else 0.0, "fraction")
    out["op_ms_tail"] = op_tail(untraced)
    overhead = (traced_ms * median(traced.op_s)) / (untraced_ms * median(untraced.op_s))
    out["trace_overhead"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (synth-10's is 1)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas_threads()
    fedjets = import_fedjets()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the cleanup below

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        setup_tracer = tracing.Tracer(fedjets) if args.trace else None
        setup_times = workload.setup(setup_tracer)
        prep = workloads.Phase()
        workload.prepare(prep)
        untraced = workloads.Phase()
        if args.trace:
            workload.run(args.seconds / 2, untraced)
            traced = workloads.Phase()
            op_tracer = tracing.Tracer(fedjets)
            with op_tracer:
                workload.run(args.seconds / 2, traced)
            phases = (prep, untraced, traced)
            metrics = per_layer(
                workloads.METHODS,
                workload.reference_record,
                workload.setup_cal_s,
                setup_tracer.profile(),
                op_tracer.profile(),
                prep,
                untraced,
                traced,
            )
        else:
            workload.run(args.seconds, untraced)
            phases = (prep, untraced)
            metrics = end_to_end(setup_times, workload.setup_cal_s, untraced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        for error in phase.errors:
            print(f"# FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    values = [v for v, _ in metrics.values()]
    correct = failed == 0 and all(math.isfinite(v) for v in values)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
