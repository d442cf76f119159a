"""Head-to-head on a reduced synth-10: zero-shot accuracy and traffic.

Runs every method for 120 rounds with the same budget, common expert and
seed, then prints the Table-1-style comparison plus the communication
ledger contrast. Takes a couple of minutes.
"""

from fedjets import benchmarks, evaluation, experiment

ROUNDS = 120
rows = []
for method in ["fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix"]:
    overrides = {"federation": {"method": method, "rounds": ROUNDS}}
    if method in ("fedavg", "fedprox", "avg_ensemble"):
        overrides["federation"]["expert_init"] = "from_common"
    cfg = benchmarks.synth10_config(**overrides)
    ctx = experiment.build_context(cfg)
    state, history, ledger = experiment.run_training(ctx)
    final = history[-1]
    down, up = ledger.cumulative(method)
    rows.append((method, final.global_acc, final.routing_acc, down + up))
    print(f"{method:13s} done: zero-shot {final.global_acc:.3f}")

common_acc = evaluation.common_expert_accuracy(ctx)

print(f"\ncommon expert baseline zero-shot accuracy: {common_acc:.3f}")
print(f"\n{'method':13s} {'zero-shot':>10s} {'routing':>9s} {'floats moved':>14s}")
for method, acc, routing, traffic in rows:
    r = "-" if routing is None else f"{routing:.3f}"
    print(f"{method:13s} {acc:10.3f} {r:>9s} {traffic:14.2e}")

print("\nnote: fedjets ships the gate plus only top-K experts per normal client;")
print("fedmix ships all M experts to every active client.")
