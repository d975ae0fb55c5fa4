"""Full unlearning round-trip on a synthetic graph.

Trains a model, removes ten training nodes by request, fine-tunes with
the forgetting/preservation objective, and compares membership leakage
and utility against the retrain-from-scratch reference.
"""

import numpy as np

from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.evaluate import mia_attack
from graphunlearn.pipeline import (RunConfig, retrain_state, test_f1,
                                   train_state, unlearn_state)
from graphunlearn.unlearn import UnlearnRequest

# high-dimensional features, shallow propagation and long training make
# the model memorize individual training rows, so there is something
# worth forgetting and the attack has a real signal to lose
spec = SbmSpec(n=600, classes=3, p_in=0.06, p_out=0.008, num_features=128,
               separation=1.5, train_fraction=0.8)
graph = generate_sbm(spec, seed=1)

cfg = RunConfig(k=1, scheme="s2gc", hidden=64, epochs=600,
                weight_decay=0.0, lam=0.1, finetune_lr=0.001,
                finetune_epochs=15, theta=0.5, budget_multiplier=3.0,
                l2_coef=0.0)

state = train_state(graph, cfg, seed=1)
print(f"trained: test F1 {test_f1(state):.3f}")

# pick thirty training nodes and ask for them to be forgotten
rng = np.random.default_rng(3)
ue = np.sort(rng.choice(graph.train_nodes(), size=30, replace=False))
request = UnlearnRequest(kind="node", nodes=ue)
print("removing nodes:", ue.tolist())

outcome = unlearn_state(state, request, cfg, seed=1)
print(f"selected {outcome.hie.size} influenced nodes to anchor the fine-tune")

retrained = retrain_state(graph, request, cfg, seed=1)

# the attacker scores confidence on the pre-removal features: a model
# that memorized the removed rows separates them from held-out nodes
pool = graph.test_nodes()
for name, params in (("original", state.params),
                     ("unlearned", outcome.state.params),
                     ("retrain", retrained.params)):
    auc = mia_attack(params, state.x_tilde, ue, pool, seed=5).auc
    print(f"membership AUC {name:9s} {auc:.3f}  (0.5 = no leakage)")

print(f"\ntest F1 unlearned {test_f1(outcome.state):.3f} "
      f"vs retrain {test_f1(retrained):.3f}")
print("fine-tune epochs logged:", len(outcome.log.epochs),
      "- rows touched:", len(outcome.log.rows_read))
