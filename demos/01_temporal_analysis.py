"""Temporal analysis of an evolving graph.

Generates a synthetic citation-style graph, measures the distribution of
time differences inside each vertex's 2-hop neighborhood, and derives
candidate history sizes from its percentiles.  Also shows how the class
distribution drifts between consecutive snapshots.

Run:  python demos/01_temporal_analysis.py
"""

import numpy as np

import evograph as eg

graph = eg.generate(
    eg.SynthConfig(
        num_timestamps=12,
        vertices_per_timestamp=40,
        num_initial_classes=4,
        new_class_schedule={6: 1},
        class_skew=1.2,
        feature_dim=16,
        window_back=4,
        seed=7,
    )
)
print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
      f"{graph.num_classes} classes over {graph.timestamps().size} snapshots")

# --- k-neighborhood time differences -----------------------------------
for k in (1, 2, 3):
    hist = eg.k_hop_time_diffs(graph, k)
    quartiles = [eg.percentile(hist, p) for p in (25, 50, 75, 100)]
    print(f"dt_{k}: mass {hist.total():6d}  quartiles {quartiles}")

sizes = eg.history_sizes(eg.k_hop_time_diffs(graph, 2), [25, 50, 75, 100])
print(f"suggested history sizes from dt_2 percentiles: {sizes}")

# --- equivariance to temporal granularity ------------------------------
# switching from "years" to "months" (factor 12) scales the percentiles
rng = np.random.default_rng(0)
monthly = eg.TemporalGraph(
    graph.num_vertices,
    graph.edges,
    12 * graph.time + rng.integers(0, 12, graph.num_vertices),
    graph.features,
    graph.labels,
    graph.num_classes,
)
h_year = eg.k_hop_time_diffs(graph, 2)
h_month = eg.k_hop_time_diffs(monthly, 2)
for p in (25, 50, 75):
    print(f"p{p}: yearly {eg.percentile(h_year, p):2d} -> monthly "
          f"{eg.percentile(h_month, p):3d} (~12x)")

# --- class drift between consecutive snapshots -------------------------
print("\nclass drift (total variation) per snapshot transition:")
times = [int(t) for t in graph.timestamps()]
for prev, curr in zip(times, times[1:]):
    def dist(ts):
        labels = graph.labels[(graph.time == ts) & (graph.labels != eg.UNLABELED)]
        vals, counts = np.unique(labels, return_counts=True)
        return {int(v): c / labels.size for v, c in zip(vals, counts)}
    sigma = eg.drift_magnitude(dist(prev), dist(curr))
    marker = " <- new class enters" if curr == 6 else ""
    print(f"  {prev} -> {curr}: {sigma:.3f}{marker}")
