"""The benchmark's traced pass wraps library functions by name and reads
counters off their results; a renamed function or field would read as a
silent 0 there, so this checks the names from the library's side.  The
benchmark's pinned configs must also still build.  perfbench/layers.py
and perfbench/workloads.py are imported as they are, never changed."""

import importlib.util
from pathlib import Path

import numpy as np

import graphunlearn
import graphunlearn.cli  # noqa: F401  (layers.targets reads every module off the package)
from graphunlearn.graph import PropagationConfig, normalized_adjacency, propagate
from graphunlearn.model import init_model, predict
from graphunlearn.pipeline import RunConfig
from graphunlearn.unlearn import UnlearnRequest, apply_removal, finetune, prepare_partition

from conftest import make_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# loss spans the benchmark still names but the library dropped long ago;
# the traced pass reports them as absent
DROPPED = {"label_shuffle_loss", "prototype_loss", "contrastive_loss", "reasoning_loss"}


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_build_and_match_acceptance():
    workloads = _load_perfbench("workloads")
    RunConfig(**workloads.MIA_CONFIG)
    RunConfig(**workloads.EDGE_CONFIG)
    RunConfig.from_dict(workloads.CLI_CONFIG)

    import test_acceptance
    for name in ("MIA_SPEC", "MIA_CONFIG", "EDGE_SPEC", "EDGE_CONFIG", "EDGE_RHOS",
                 "CLI_CONFIG"):
        assert getattr(test_acceptance, name) == getattr(workloads, name), name


def test_benchmark_targets_and_partition_counters_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans by bare name
    layers = _load_perfbench("layers")

    rows = layers.targets(graphunlearn)
    missing = {fn for home, fn, _, _ in rows if not callable(getattr(home, fn, None))}
    assert missing == DROPPED

    n = 12
    train = np.arange(n) < 9
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)], labels=np.arange(n) % 2,
                   train=train, test=~train)
    cfg = PropagationConfig.s2gc(1)
    x = propagate(normalized_adjacency(g, 0.5), g.features, cfg)
    params = init_model(3, 4, 2, seed=0)
    after = apply_removal(g, UnlearnRequest(kind="node", nodes=(0, 3)))
    x_after = propagate(normalized_adjacency(after, 0.5), after.features, cfg)
    part = prepare_partition(after, x_after, [0, 3], [1, 2, 4], predict(params, x),
                             params, x_before=x, positives_per_anchor=2,
                             negatives_per_anchor=2, seed=0)
    counts = layers._partition_counts({}, part)
    assert (counts["ue"], counts["hie"]) == (2, 3)
    assert counts["working_set_rows"] == part.x.shape[0]
    out = finetune(params, part, lr=0.01, epochs=2, lam=0.5, tau=0.5, l2_coef=5e-4)
    assert layers._finetune_counts({}, out) == {"epochs": 2}
