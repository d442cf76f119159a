"""How the gate learns to route: common-expert embeddings + anchor loss.

Pretrains a common expert, embeds the training set once, then trains the
gate on nothing but the anchors' independent loss and watches per-sample
routing accuracy on held-out clients climb.
"""

import numpy as np

from fedjets import central, data, evaluation, gating, nn
from fedjets.seeding import rng_stream

C, D, M = 10, 16, 5
train = data.synth_dataset(C, D, 200, 4.0, seed=0)
test = data.synth_dataset(C, D, 100, 4.0, seed=1, means_seed=0)

spec = nn.NetSpec.mlp([D, 32, 32, C])
pre = central.pretrain(spec, train, test, 0.93, 40, 0.01, 0.9, 64, seed=0)
common = gating.CommonExpert.from_net(pre.params)
print(f"common expert: {pre.accuracy:.3f} accuracy, embeddings at layer {common.embed_layer} "
      f"(dim {common.embed_dim})")

anchors = data.make_anchor_shards(train, M, 2, seed=0, disjoint=True)
truth = evaluation.routing_ground_truth(anchors)
print("label -> expert map:", truth)

gate = nn.init_params(gating.gate_spec(common.embed_dim, M), rng_stream(0, "g"))
train_embeddings = gating.embed_inputs(common, train.inputs)  # the training set, embedded once

tests = data.make_test_clients(test, 6, 2, seed=2, training_shards=anchors)
test_embeddings = gating.embed_inputs(common, test.inputs)  # the test set, embedded once
stacks = evaluation.client_stacks(tests, test, truth)  # test clients of one shard size, with each row's true expert

velocity = np.zeros_like(gate.values)
layers = nn.unpack(gate.spec, gate.values)  # bound once; sgdm_step updates gate.values in place
for step in range(401):
    if step % 100 == 0:
        scores = gating.gate_scores(gate, test_embeddings)  # one gate forward; each client routes on its rows
        wrong = [(gating.route(scores[s.rows], 2)[1] != s.truth).mean(axis=1) for s in stacks]  # per client
        print(f"step {step:4d}: routing error {np.concatenate(wrong).mean():.3f} (chance 0.80)")
    q = step % M
    emb = train_embeddings[anchors[q].indices]  # anchor q's rows
    target = np.full(len(emb), q)  # the gate learns to send anchor q to expert q
    _, grad = nn.ce_grad(gate.spec, layers, emb, target, "ce_on_mixture")
    nn.sgdm_step(gate.values, velocity, grad, 0.05, 0.0)

sel, _ = gating.route(gating.gate_scores(gate, test_embeddings[tests[0].indices]), 2)
print(f"test client {tests[0].client_id} holds labels {sorted(tests[0].label_set)} "
      f"-> selected experts {sel.tolist()}")
