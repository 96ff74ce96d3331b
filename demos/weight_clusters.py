"""Cluster learned per-node filter weights and summarize the centroid shapes.

After a short training run on a mixed graph, the per-node weight table is
grouped by k-means and each centroid is rendered as a frequency-response
curve.  Distinct cluster shapes are the point of node-wise filtering: the
model learned different responses for different neighborhoods.
"""

import numpy as np

from diverspec import (
    DsfConfig,
    TrainConfig,
    centroid_curves,
    cluster_weights,
    graph_inputs,
    make_splits,
    train_once,
    two_block_graph,
)


def main() -> None:
    graph = two_block_graph(block_size=35, num_features=8, seed=2, heterophilous=True)
    model_cfg = DsfConfig(
        K=6, d=16, f_p=8, eta1=0.3, lambda_orth=0.001,
        mode="R", backbone="GPR", dropout_p=0.2,
    )
    train_cfg = TrainConfig(lr=0.05, weight_decay=5e-4, epochs=80, patience=80)
    split = make_splits(graph, "dense", 1, seed=0)[0]
    inputs = graph_inputs(graph, model_cfg)
    record = train_once(graph, inputs, model_cfg, train_cfg, split, seed_entropy=(0, 0, 0))
    print(f"trained to test acc {record.test_acc:.3f} (stopped at epoch {record.epochs_run})")

    clustering = cluster_weights(record.betas, k=3, seed=0)
    sizes = np.bincount(clustering.labels, minlength=3)
    print(f"k-means inertia {clustering.inertia:.4f} after {clustering.iterations} iterations")

    grid = np.linspace(0.0, 2.0, 7)
    curves = centroid_curves(clustering.centroids, model_cfg.basis(), grid)
    header = "  ".join(f"g({lam:.2f})" for lam in grid)
    print(f"\ncluster  size  {header}")
    for j, curve in enumerate(curves):
        cells = "  ".join(f"{v:+.3f}" for v in curve)
        print(f"{j:>7}  {sizes[j]:>4}  {cells}")


if __name__ == "__main__":
    main()
