"""Pre-training then up-training on unlabeled insertions.

Pre-trains on the subgraph induced on the labeled vertices before the final
timestamp, then inserts the remaining vertices and edges and continues
training on the same labels.  The pre-trained model's accuracy on the
labeled vertices at the final timestamp plateaus immediately, i.e. new
unlabeled data does not require retraining; a model without pre-training
starts near chance and has to learn everything during the inference epochs.

Run:  python demos/04_two_phase_inference.py
"""

import numpy as np

import evograph as eg

graph = eg.generate(
    eg.SynthConfig(
        num_timestamps=2,
        vertices_per_timestamp=200,
        num_initial_classes=4,
        class_skew=0.7,
        feature_dim=12,
        feature_noise=0.3,
        intra_class_edge_prob=0.06,
        inter_class_edge_prob=0.008,
        window_back=1,
        seed=30,
    )
)
# two_task_experiment pre-trains on the labeled vertices before the final timestamp
final = graph.timestamps()[-1]
pretrain = int(np.sum((graph.time < final) & (graph.labels != eg.UNLABELED)))
print(f"pre-training graph: {pretrain} labeled vertices; "
      f"{graph.num_vertices - pretrain} vertices inserted afterwards\n")

cfg = eg.ExperimentConfig(model="sage", learning_rate=0.01, seeds=(0,))
# one accuracy trace per seed of cfg.seeds
(pre,) = eg.two_task_experiment(graph, cfg, pretrain_epochs=200, inference_epochs=35)
(naive,) = eg.two_task_experiment(graph, cfg, pretrain_epochs=0, inference_epochs=35)

print("epoch   pre-trained   from-scratch")
for e in (0, 1, 2, 5, 10, 20, 35):
    print(f"{e:5d}   {pre[e]:11.3f}   {naive[e]:12.3f}")

print(f"\npre-trained accuracy varied by only {max(pre) - min(pre):.3f} "
      "across all 35 inference epochs")
