"""End-to-end acceptance gate.

Each test prints one verdict line ("[acceptance NN] ...: PASS/FAIL")
so a full run reads as a checklist.  The heavyweight membership
inference study (tests 05-07) shares one session fixture; everything
else builds its own small fixtures.
"""

import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from graphunlearn.cli import main as cli_main
from graphunlearn.datagen import SbmSpec, generate_sbm
from graphunlearn.evaluate import edge_attack_run, mia_attack
from graphunlearn.graph import PropagationConfig, normalized_adjacency, propagate
from graphunlearn.influence import select_hie
from graphunlearn.model import StepBuffers, cross_entropy, init_model, predict, train
from graphunlearn.pipeline import (Pipeline, RunConfig, retrain_state,
                                   train_state, unlearn_state)
from graphunlearn.pipeline import test_f1 as pipeline_f1
from graphunlearn.unlearn import (FinetuneBuffers, UnlearnRequest, apply_removal,
                                  finetune, fused_loss, prepare_partition)

from conftest import (dense_pi, grad_check, influence_oracle, make_graph,
                      propagation_column, random_connected_graph, walk_pi_matrix)

# ---------------------------------------------------------------------------
# Pinned study configuration for the directional experiments (05-08).
# ---------------------------------------------------------------------------

MIA_SPEC = dict(n=2000, classes=4, p_in=0.05, p_out=0.005,
                num_features=256, separation=2.0, train_fraction=0.8)
MIA_CONFIG = dict(gen_features=256, epochs=800, weight_decay=0.0, k=1,
                  scheme="s2gc", hidden=64, lam=0.1, finetune_lr=0.001,
                  finetune_epochs=200, theta=0.5, budget_multiplier=4.0)
MIA_SEEDS = 20

EDGE_SPEC = dict(n=2000, classes=4, p_in=0.008, p_out=0.0006,
                 num_features=16, separation=0.8, train_fraction=0.8)
EDGE_CONFIG = dict(k=2, scheme="s2gc", mode="mlp", hidden=64, epochs=200,
                   lr=0.01, weight_decay=5e-4, lam=0.05, finetune_lr=0.0005,
                   finetune_epochs=2, theta=0.5, budget_multiplier=0.1)
EDGE_SEEDS = 10
EDGE_RHOS = (0.1, 0.2, 0.3)

# The CLI chain benchmark's data shape, run at RunConfig's fine-tune
# defaults (11).
CLI_CONFIG = {"datagen.n": 4000, "datagen.classes": 4, "datagen.p_in": 0.02,
              "datagen.p_out": 0.002, "datagen.features": 64,
              "train.epochs": 200, "unlearn.epochs": 50, "nim.theta": 0.5}
CLI_SEEDS = 8


def _verdict(num: int, desc: str, stats: str, ok: bool) -> bool:
    word = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {desc} ({stats}): {word}")
    return ok


# ------------------------------------------------------------------ 01


def test_01_influence_matches_walk_enumeration():
    """Influence columns and selection scores equal brute-force walk products."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    schemes = [PropagationConfig.sgc(1), PropagationConfig.sgc(2),
               PropagationConfig.sgc(3), PropagationConfig.sgc(4),
               PropagationConfig.s2gc(4), PropagationConfig.gbp(4, 0.5),
               PropagationConfig.s2gc(2)]
    worst = 0.0
    count = 0
    for n in range(1, 9):
        for i in range(50):
            edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3)))
            graph = make_graph(n, edges)
            config = schemes[(count + i) % len(schemes)]
            op = normalized_adjacency(graph, r=1.0)
            pi_walk = walk_pi_matrix(graph, np.asarray(config.weights))
            seeds = np.sort(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                       replace=False))
            rows_impl = np.stack([np.abs(propagation_column(op, config, int(u)))
                                  for u in seeds])
            rows_walk = np.stack([np.abs(pi_walk[:, u]) for u in seeds])
            worst = max(worst, float(np.abs(rows_impl - rows_walk).max()))
            if n > seeds.size:
                # identical one-hot labels make the feature channel equal the
                # topology channel, so every score is twice the normalized
                # topology score; theta 0 and a full budget rank every node
                same = np.ones((n, 1))
                sel = select_hie(op, config, seeds, same, theta=0.0,
                                 budget=n - seeds.size, mode="static")
                want = influence_oracle(pi_walk, same, seeds)[sel.nodes]
                worst = max(worst, float(np.abs(sel.scores - want).max()))
            count += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 30.0
    assert _verdict(1, "influence equals walk-product enumeration",
                    f"{count} graphs, max err {worst:.2e}, {dt:.1f}s", ok)


# ------------------------------------------------------------------ 02


def _training_setup(seed: int = 0):
    rng = np.random.default_rng(seed)
    n, classes = 24, 3
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(12)]
    edges = [(u, v) for u, v in edges if u != v]
    labels = np.arange(n) % classes
    feats = rng.standard_normal((n, 4))
    train_mask = np.zeros(n, dtype=bool)
    train_mask[:19] = True
    graph = make_graph(n, edges, features=feats, labels=labels,
                       train=train_mask, test=~train_mask)
    config = PropagationConfig.s2gc(2)
    op = normalized_adjacency(graph, r=0.5)
    x = propagate(op, graph.features, config)
    params = init_model(4, 6, classes, seed=seed)
    params, _ = train(params, x, graph.labels, graph.train_mask,
                      lr=0.01, weight_decay=5e-4, epochs=40)
    return graph, config, x, params


def test_02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = {}
    graph, config, x, params = _training_setup()
    soft = predict(params, x)
    ue, hie = np.array([0, 3]), np.array([1, 2, 4])
    request = UnlearnRequest(kind="node", nodes=(0, 3))
    after = apply_removal(graph, request)
    x_after = propagate(normalized_adjacency(after, 0.5), after.features, config)
    part = prepare_partition(after, x_after, ue, hie, soft, params, x_before=x,
                             positives_per_anchor=5, negatives_per_anchor=5, seed=0)
    rows = graph.train_mask
    losses = {"ce": lambda p: cross_entropy(p, x[rows], graph.labels[rows],
                                            StepBuffers(p, int(rows.sum())))}
    for lam in (0.0, 0.3, 1.0):
        losses[f"fused/lambda={lam}"] = \
            lambda p, lam=lam: fused_loss(p, part, lam=lam, tau=0.5, l2_coef=5e-4,
                                          buf=FinetuneBuffers(p, part))[:2]
    for name, fn in losses.items():
        worst[name] = grad_check(params, fn, seed=7, num_probes=20)
    dt = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-4 and dt < 60.0
    assert _verdict(2, "all loss gradients match central differences",
                    f"{len(worst)} checks, max rel err {peak:.2e}, {dt:.1f}s", ok)


# ------------------------------------------------------------------ 03


def test_03_propagation_properties():
    rng = np.random.default_rng(5)
    worst_row = worst_dense = worst_lin = 0.0

    # row-stochastic operators with weights summing to one keep constants
    for k in range(5):
        graph = make_graph(40, random_connected_graph(rng, 40, extra_edges=30))
        op = normalized_adjacency(graph, r=1.0)
        config = PropagationConfig.s2gc(k)
        out = propagate(op, np.ones((40, 2)), config)
        worst_row = max(worst_row, float(np.abs(out - 1.0).max()))

    # dense reference on small graphs across the exponent grid
    for n in range(2, 9):
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            graph = make_graph(n, random_connected_graph(rng, n, extra_edges=2))
            for config in (PropagationConfig.sgc(2), PropagationConfig.s2gc(3),
                           PropagationConfig.gbp(4, 0.3)):
                op = normalized_adjacency(graph, r=r)
                got = propagate(op, np.eye(n), config)
                want = dense_pi(graph, r, config.weights)
                worst_dense = max(worst_dense, float(np.abs(got - want).max()))

    # propagation is linear in the feature matrix
    graph = make_graph(150, random_connected_graph(rng, 150, extra_edges=200))
    op = normalized_adjacency(graph, r=0.5)
    config = PropagationConfig.gbp(3, 0.4)
    x = rng.standard_normal((150, 6))
    y = rng.standard_normal((150, 6))
    lhs = propagate(op, 2.5 * x - 1.25 * y, config)
    rhs = 2.5 * propagate(op, x, config) - 1.25 * propagate(op, y, config)
    worst_lin = float(np.abs(lhs - rhs).max())

    peak = max(worst_row, worst_dense, worst_lin)
    ok = peak <= 1e-10
    assert _verdict(3, "propagation row sums, dense oracle, linearity",
                    f"max err {peak:.2e}", ok)


# ------------------------------------------------------------------ 04


def test_04_greedy_selection_properties():
    violations = []
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(40, 90))
        spec = SbmSpec(n=n, classes=int(rng.integers(2, 5)),
                       p_in=float(rng.uniform(0.08, 0.2)),
                       p_out=float(rng.uniform(0.01, 0.04)),
                       num_features=6, separation=1.0, train_fraction=0.8)
        graph = generate_sbm(spec, seed=trial)
        r = 0.5 if trial % 2 else 1.0
        op = normalized_adjacency(graph, r=r)
        config = PropagationConfig.s2gc(2) if trial % 3 else PropagationConfig.sgc(2)
        pi = dense_pi(graph, r, config.weights)
        soft = rng.dirichlet(np.ones(4), size=n)
        ue = np.sort(rng.choice(n, size=int(rng.integers(2, 7)), replace=False))

        b_small = int(rng.integers(1, 6))
        b_large = b_small + int(rng.integers(1, 6))
        small = select_hie(op, config, ue, soft, 0.0, b_small, "expanding")
        large = select_hie(op, config, ue, soft, 0.0, b_large, "expanding")
        if not np.array_equal(small.nodes, large.nodes[:small.nodes.size]):
            violations.append((trial, "budget-prefix"))

        lo = select_hie(op, config, ue, soft, 0.0, b_large, "static")
        hi = select_hie(op, config, ue, soft, float(np.median(lo.scores)) if lo.nodes.size
                        else 0.5, b_large, "static")
        if not np.array_equal(hi.nodes, lo.nodes[:hi.nodes.size]):
            violations.append((trial, "theta-monotone"))

        # re-derive every greedy pick from the dense oracle
        taken = set(int(v) for v in ue)
        for step, pick in enumerate(large.nodes):
            seeds = np.asarray(sorted(taken))
            scores = influence_oracle(pi, soft, seeds)
            scores[seeds] = -1.0
            best = int(np.argmax(scores))
            best_score = float(scores.max())
            got_score = float(scores[pick])
            if got_score < best_score - 1e-9:
                violations.append((trial, f"argmax@{step}"))
            elif best_score - got_score > 1e-12 and int(pick) != best:
                violations.append((trial, f"tie@{step}"))
            taken.add(int(pick))
    ok = not violations
    assert _verdict(4, "greedy selection prefix/threshold/argmax properties",
                    f"100 instances, {len(violations)} violations", ok)


# --------------------------------------------------------- 05/06/07 fixture


def _directional_seed_run(seed: int) -> dict:
    spec = SbmSpec(**MIA_SPEC)
    graph = generate_sbm(spec, seed)
    cfg = RunConfig(**MIA_CONFIG)
    state = train_state(graph, cfg, seed)

    rng = np.random.default_rng(seed + 1000)
    train_ids = graph.train_nodes()
    ue = np.sort(rng.choice(train_ids, size=int(round(0.1 * train_ids.size)),
                            replace=False))
    request = UnlearnRequest(kind="node", nodes=tuple(int(v) for v in ue))

    retrained = retrain_state(graph, request, cfg, seed)
    nim = unlearn_state(state, request, cfg, seed)
    khop = unlearn_state(state, request,
                         dc_replace(cfg, method="khop", khop=2), seed)

    pool = graph.test_nodes()
    return {
        "auc_original": mia_attack(state.params, state.x_tilde, ue, pool, seed).auc,
        "auc_nim": mia_attack(nim.state.params, state.x_tilde, ue, pool, seed).auc,
        "auc_khop": mia_attack(khop.state.params, state.x_tilde, ue, pool, seed).auc,
        "auc_retrain": mia_attack(retrained.params, state.x_tilde, ue, pool, seed).auc,
        "f1_unlearned": pipeline_f1(nim.state),
        "f1_retrain": pipeline_f1(retrained),
    }


@pytest.fixture(scope="session")
def directional_runs():
    t0 = time.perf_counter()
    runs = [_directional_seed_run(seed) for seed in range(MIA_SEEDS)]
    wall = time.perf_counter() - t0
    return runs, wall


def test_05_influence_selection_beats_khop(directional_runs):
    runs, wall = directional_runs
    d_nim = np.array([abs(r["auc_nim"] - 0.5) for r in runs])
    d_khop = np.array([abs(r["auc_khop"] - 0.5) for r in runs])
    wins = int((d_nim <= d_khop).sum())
    ok = d_nim.mean() <= d_khop.mean() and wins >= 14 and wall < 600.0
    assert _verdict(5, "influence-selected fine-tune erases at least as well as 2-hop",
                    f"mean |auc-0.5| {d_nim.mean():.4f} vs {d_khop.mean():.4f}, "
                    f"wins {wins}/{MIA_SEEDS}, fixture {wall:.0f}s", ok)


def test_06_unlearning_moves_auc_toward_chance(directional_runs):
    runs, _ = directional_runs
    d_orig = np.array([abs(r["auc_original"] - 0.5) for r in runs])
    d_nim = np.array([abs(r["auc_nim"] - 0.5) for r in runs])
    d_retrain = np.array([abs(r["auc_retrain"] - 0.5) for r in runs])
    closer = int((d_nim < d_orig).sum())
    ok = closer >= 16
    assert _verdict(6, "unlearned model sits closer to chance than original",
                    f"closer in {closer}/{MIA_SEEDS} seeds, original mean "
                    f"{d_orig.mean():.4f}, unlearned mean {d_nim.mean():.4f}, "
                    f"retrain mean {d_retrain.mean():.4f}", ok)


def test_07_utility_stays_near_retrain(directional_runs):
    runs, wall = directional_runs
    f1_u = float(np.mean([r["f1_unlearned"] for r in runs]))
    f1_r = float(np.mean([r["f1_retrain"] for r in runs]))
    auc_u = float(np.mean([r["auc_nim"] for r in runs]))
    auc_r = float(np.mean([r["auc_retrain"] for r in runs]))
    gap = abs(f1_u - f1_r)
    ok = gap <= 0.03 and wall < 600.0
    assert _verdict(7, "non-removed test F1 within 3 points of retrain",
                    f"unlearned {f1_u:.4f}, retrain {f1_r:.4f}, gap {gap:.4f}, "
                    f"MIA AUC unlearned {auc_u:.4f} vs retrain {auc_r:.4f}, "
                    f"fixture {wall:.0f}s", ok)


# ------------------------------------------------------------------ 08


def test_08_edge_attack_recovery():
    t0 = time.perf_counter()
    spec = SbmSpec(**EDGE_SPEC)
    cfg = RunConfig(**EDGE_CONFIG)
    by_rho = {rho: [] for rho in EDGE_RHOS}
    for seed in range(EDGE_SEEDS):
        graph = generate_sbm(spec, seed)
        pipe = Pipeline(cfg, seed)
        for rho in EDGE_RHOS:
            rep = edge_attack_run(graph, rho, pipe, seed)
            by_rho[rho].append((rep.f1_clean, rep.f1_poisoned, rep.f1_unlearned))
    ok = True
    parts = []
    for rho in EDGE_RHOS:
        arr = np.array(by_rho[rho])
        clean, poisoned, after = arr.mean(axis=0)
        ok = ok and after >= poisoned and after >= clean - 0.04
        parts.append(f"rho={rho}: {poisoned:.3f}->{after:.3f} (clean {clean:.3f})")
    dt = time.perf_counter() - t0
    assert _verdict(8, "unlearning recovers utility lost to edge noise",
                    "; ".join(parts) + f", {dt:.0f}s", ok)


# ------------------------------------------------------------------ 09


def _finetune_setup(n: int, seed: int):
    """Everything one timed fine-tune of acceptance 09 needs, built untimed."""
    spec = SbmSpec(n=n, classes=4, p_in=0.05, p_out=0.005, num_features=32,
                   separation=2.0, train_fraction=0.8)
    graph = generate_sbm(spec, seed)
    cfg = RunConfig(gen_features=32, epochs=60, k=1, scheme="s2gc", hidden=64)
    state = train_state(graph, cfg, seed)

    rng = np.random.default_rng(seed + 77)
    ue = np.sort(rng.choice(graph.train_nodes(), size=50, replace=False))
    hie = select_hie(state.op, cfg.propagation_config(), ue, state.soft,
                     theta=0.1, budget=150, mode="expanding").nodes
    request = UnlearnRequest(kind="node", nodes=tuple(int(v) for v in ue))
    after = apply_removal(state.graph, request)
    x_after = propagate(normalized_adjacency(after, cfg.r), after.features,
                        cfg.propagation_config())
    part = prepare_partition(after, x_after, ue, np.sort(hie), state.soft,
                             state.params, x_before=state.x_tilde,
                             positives_per_anchor=5, negatives_per_anchor=5, seed=seed)
    return state.params, part


def test_09_finetune_cost_tracks_entities_not_graph_size():
    # Build every setup first, then alternate the timed repeats between
    # the sizes, so machine drift over the run lands on both sides of
    # the ratio instead of between them.
    sizes, seeds = (2000, 4000), range(3)
    ft = dict(lr=0.001, epochs=40, lam=0.1, tau=0.5, l2_coef=5e-4)
    setups = {(n, s): _finetune_setup(n, s) for n in sizes for s in seeds}
    best = dict.fromkeys(setups, float("inf"))
    for _ in range(5):
        for s in seeds:
            for n in sizes:
                params, part = setups[n, s]
                t0 = time.perf_counter()
                finetune(params, part, **ft)
                best[n, s] = min(best[n, s], (time.perf_counter() - t0) / ft["epochs"])
    small, large = (np.mean([best[n, s] for s in seeds]) for n in sizes)
    ratio = large / small
    ok = ratio <= 1.3
    assert _verdict(9, "per-epoch fine-tune time flat as graph doubles",
                    f"{small*1e3:.2f}ms -> {large*1e3:.2f}ms per epoch, "
                    f"ratio {ratio:.3f}", ok)


# ------------------------------------------------------------------ 10


def test_10_pipeline_is_byte_deterministic(tmp_path):
    import json
    config = {
        "datagen.n": 200, "datagen.classes": 3, "datagen.p_in": 0.06,
        "datagen.p_out": 0.01, "datagen.features": 8,
        "propagation.k": 2, "train.epochs": 40, "model.mode": "mlp",
        "nim.theta": 0.1, "unlearn.epochs": 10, "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        for command in ("gen", "train", "unlearn", "retrain", "attack", "report"):
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out), "--seed", "4"])
            assert code == 0
        outputs.append(out)
    compared = ["metrics.jsonl", "report.csv", "plot_mia_auc.csv",
                "attack_mia.json", "checkpoint_unlearned.guwt"]
    same = all((outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
               for f in compared)
    assert _verdict(10, "two identical runs produce byte-identical outputs",
                    f"{len(compared)} files compared", same)


# ------------------------------------------------------------------ 11


def test_11_shipped_defaults_stay_near_retrain(tmp_path):
    import json
    t0 = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    gaps, deficits = [], []
    for seed in range(CLI_SEEDS):
        out = tmp_path / f"seed_{seed}"
        for command in ("gen", "train", "unlearn", "retrain", "attack", "report"):
            assert cli_main([command, "--config", str(cfg_path),
                             "--out", str(out), "--seed", str(seed)]) == 0
        metrics = {row["metric"]: row["value"] for row in map(
            json.loads, (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines())}
        gaps.append(abs(metrics["test_f1_unlearned"] - metrics["test_f1_retrain"]))
        deficits.append(metrics["mia_auc_retrain"] - metrics["mia_auc_unlearned"])
    dt = time.perf_counter() - t0
    worst, deficit = max(gaps), float(np.mean(deficits))
    ok = worst <= 0.03 and deficit <= 0.05
    assert _verdict(11, "CLI defaults keep test F1 and MIA AUC near retrain",
                    f"largest F1 gap {worst:.4f} over {CLI_SEEDS} seeds, mean AUC "
                    f"retrain - unlearned {deficit:.4f}, {dt:.0f}s", ok)
