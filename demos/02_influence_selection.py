"""Influence scoring and greedy neighborhood selection.

Scores every node's exposure to a set of to-be-removed seeds, then
greedily picks the most influenced nodes under a threshold and budget.
Compares the result against the blunt k-hop alternative.

The per-node score is exposure concentration: for each channel the
strongest single-seed influence over the total influence received, so
it peaks at 2.0 when one revoked node accounts for everything this
node would propagate-in, and decays toward 2/num_seeds when exposure
is spread evenly.
"""

import numpy as np

from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.graph import PropagationConfig, normalized_adjacency, propagate
from graphunlearn.influence import khop_hie_capped, select_hie

spec = SbmSpec(n=120, classes=3, p_in=0.30, p_out=0.004, num_features=8,
               separation=1.5, train_fraction=0.8)
graph = generate_sbm(spec, seed=7)
op = normalized_adjacency(graph, r=0.5)
config = PropagationConfig.s2gc(2)

# six revoked nodes in one dense community, so exposures overlap and
# the score landscape has an interior, not just the 2.0 ceiling
community = np.flatnonzero(graph.labels == 0)
seeds = community[[2, 5, 9, 14, 20, 27]]
print("seeds to remove:", seeds.tolist(), "(all in community 0)")

# stand-in predictions: confident on the true class. A trained model
# would supply these; the scoring only needs per-node class weights.
soft = np.full((graph.n, 3), 0.05)
soft[np.arange(graph.n), graph.labels] = 0.90

# theta 0, a budget that covers every candidate and a fixed seed set
# turn the greedy selection into a full ranking by score
ranking = select_hie(op, config, seeds, soft, theta=0.0,
                     budget=graph.n - seeds.size, mode="static")
score = np.zeros(graph.n)
score[ranking.nodes] = ranking.scores
# raw mass: the strongest single-seed propagation weight a node receives,
# read off the seeds' columns of Pi (the images of their one-hot vectors)
raw = np.abs(propagate(op, np.eye(graph.n)[:, seeds], config)).max(axis=1)

touched = ranking.scores[ranking.scores > 0]
print(f"\n{touched.size} candidates receive any influence; "
      f"score quartiles {np.round(np.percentile(touched, [25, 50, 75]), 3).tolist()}, "
      f"{int((touched >= 1.999).sum())} at the single-seed ceiling")

top = ranking.nodes[:4]
heavy = ranking.nodes[np.argsort(raw[ranking.nodes])[::-1][:4]]
print("top by score, then top by raw mass (node, community, raw, score):")
for node in list(top) + [v for v in heavy if v not in top]:
    print(f"  {node:4d}  {int(graph.labels[node])}  {raw[node]:.4f}  {score[node]:.3f}")
print("small-raw nodes can outrank heavy ones: a node kept by a single")
print("revoked neighbor depends on it entirely, and that is the risk here")

# greedy selection: argmax each round, stop below theta, cap at budget.
# expanding mode folds each pick into the seed set before rescoring.
picked = select_hie(op, config, seeds, soft, theta=0.6, budget=12, mode="expanding")
print("\ngreedy picks in order:", picked.nodes.tolist())
print("scores:", np.round(picked.scores, 3).tolist())
same = int((graph.labels[picked.nodes] == 0).sum())
print(f"{same}/{picked.nodes.size} picks share the seeds' community")

# the same budget spent on plain graph distance
khop = khop_hie_capped(graph, seeds, hops=2, budget=12)
overlap = np.intersect1d(picked.nodes, khop.nodes).size
print("\n2-hop alternative (by hop, then id):", khop.nodes.tolist())
print(f"overlap: {overlap}/{picked.nodes.size} "
      "(influence ranks by propagation weight, not hop count)")
