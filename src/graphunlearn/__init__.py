"""Graph unlearning for decoupled GNNs.

The pieces, in pipeline order: build or generate a graph (graph,
datagen), precompute propagated features and train a head (graph,
model), score which nodes an unlearning request influences and select
the high-influenced set (influence), surgically remove the entities and
fine-tune with forgetting plus reasoning losses (unlearn), then measure
what an attacker can still see (evaluate).
"""

__version__ = "0.1.0"
