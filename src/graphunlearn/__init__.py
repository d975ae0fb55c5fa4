"""Graph unlearning for decoupled GNNs.

The pieces, in pipeline order: build or generate a graph (graph,
datagen), precompute propagated features and train a head (graph,
model), score which nodes an unlearning request influences and select
the high-influenced set (influence), surgically remove the entities and
fine-tune with forgetting plus reasoning losses (unlearn), then measure
what an attacker can still see (evaluate).
"""

from .errors import (CheckpointError, ConfigError, DataError,
                     GraphUnlearnError, IoError, MaskError, MetricError,
                     PrototypeError, RequestError, ShapeError)
from .graph import (Graph, PropagationConfig, SparseOperator, build_graph,
                    normalized_adjacency, propagate, propagation_column)
from .model import (Adam, ModelParams, forward_embed, init_model,
                    load_checkpoint, predict, save_checkpoint, train)
from .influence import HieSelection, select_hie
from .unlearn import (EntityPartition, UnlearnRequest, apply_removal,
                      build_prototypes, finetune, prepare_partition,
                      shuffle_labels, transform_request)
from .evaluate import (AttackReport, EdgeAttackReport, auc, edge_attack_run,
                       f1_score, mia_attack)
from .datagen import SbmSpec, generate_sbm
from .pipeline import Pipeline, RunConfig, train_state, unlearn_state

__version__ = "0.1.0"
