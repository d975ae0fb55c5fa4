"""The three benchmark workloads: set-up from a seed, then one pass.

Each workload is a single-process closed loop: every operation starts
when the previous one returns.  A pass returns its phase timings, its
quality gaps, a digest of its outputs and the tally of operations and
output checks.  Library calls go through module attributes
(``pipeline.train_state``), so the traced pass sees every one of them.

    directional  one seed of the acceptance 05-07 body at MIA_SPEC/MIA_CONFIG
    edge_poison  one seed of the acceptance 08 body, rho 0.1/0.2/0.3
    cli_chain    gen -> train -> unlearn -> retrain -> attack -> report
                 through graphunlearn.cli.main over two fanned-out seeds
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from graphunlearn import cli, datagen, evaluate, fileio, model, pipeline
from graphunlearn.unlearn import UnlearnRequest

# Pinned study configurations, copied from tests/test_acceptance.py so
# that the benchmark keeps measuring the same work if the tests move.
MIA_SPEC = dict(n=2000, classes=4, p_in=0.05, p_out=0.005,
                num_features=256, separation=2.0, train_fraction=0.8)
MIA_CONFIG = dict(gen_features=256, epochs=800, weight_decay=0.0, k=1,
                  scheme="s2gc", hidden=64, lam=0.1, finetune_lr=0.001,
                  finetune_epochs=200, theta=0.5, budget_multiplier=4.0)
EDGE_SPEC = dict(n=2000, classes=4, p_in=0.008, p_out=0.0006,
                 num_features=16, separation=0.8, train_fraction=0.8)
EDGE_CONFIG = dict(k=2, scheme="s2gc", mode="mlp", hidden=64, epochs=200,
                   lr=0.01, weight_decay=5e-4, lam=0.05, finetune_lr=0.0005,
                   finetune_epochs=2, theta=0.5, budget_multiplier=0.1)
EDGE_RHOS = (0.1, 0.2, 0.3)
CLI_CONFIG = {"datagen.n": 4000, "datagen.classes": 4, "datagen.p_in": 0.02,
              "datagen.p_out": 0.002, "datagen.features": 64,
              "train.epochs": 200, "unlearn.epochs": 50, "nim.theta": 0.5}
CLI_SEEDS_PER_PASS = 2
# timing phase -> CLI stage, for the stages that fan out over the seeds
CLI_PHASES = {"gen": "gen", "train": "train", "request": "unlearn",
              "retrain": "retrain", "attack": "attack"}
# the files acceptance 10 compares byte for byte, relative to --out
CLI_COMPARED = ("metrics.jsonl", "report.csv", "plot_mia_auc.csv",
                "seed_*/attack_mia.json", "seed_*/checkpoint_unlearned.guwt")


class Tally:
    """Counts operations and output checks; sums time per phase."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict = {}
        self.raised = None  # the last exception op counted

    def op(self, phase: str, fn, *args):
        """Run one timed operation; an exception is counted, then re-raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self.failures.append(f"{phase}: {type(exc).__name__} {exc}")
            self.raised = exc
            raise
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + time.perf_counter() - start

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")


def f1_gap(f1_unlearned, f1_reference) -> float:
    """Mean |F1_unlearned - F1_reference| over paired runs."""
    return float(np.mean(np.abs(np.asarray(f1_unlearned) - np.asarray(f1_reference))))


def auc_gap(auc_unlearned, auc_reference) -> float:
    """Mean |AUC_unlearned - AUC_reference| over paired attacks."""
    return float(np.mean(np.abs(np.asarray(auc_unlearned) - np.asarray(auc_reference))))


def _digest_params(h, params) -> None:
    for name, arr in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _check_state(tally: Tally, state, tag: str) -> float:
    """Soft labels are distributions and test F1 lies in [0, 1]."""
    tally.check(np.abs(state.soft.sum(axis=1) - 1.0).max() <= 1e-9,
                f"{tag}: soft-label rows sum to 1")
    f1 = pipeline.test_f1(state)
    tally.check(0.0 <= f1 <= 1.0, f"{tag}: F1 {f1} lies in [0, 1]")
    return f1


def _check_selection(tally: Tally, outcome, budget: int, tag: str) -> None:
    tally.check(np.intersect1d(outcome.hie, outcome.ue).size == 0,
                f"{tag}: HIE is disjoint from UE")
    tally.check(outcome.hie.size <= budget,
                f"{tag}: |HIE| {outcome.hie.size} <= budget {budget}")


def _check_node_removal(tally: Tally, graph_after, ue, tag: str) -> None:
    tally.check(not np.diff(graph_after.indptr)[ue].any(), f"{tag}: UE nodes have no edges")
    tally.check(not graph_after.features[ue].any(), f"{tag}: UE feature rows are zero")
    tally.check(not graph_after.train_mask[ue].any(), f"{tag}: UE nodes left the train mask")


# ------------------------------------------------------------ directional


def directional_setup(seed: int, work: Path, tally: Tally) -> dict:
    graph = datagen.generate_sbm(datagen.SbmSpec(**MIA_SPEC), seed)
    rng = np.random.default_rng(seed + 1000)
    train_ids = graph.train_nodes()
    ue = np.sort(rng.choice(train_ids, size=int(round(0.1 * train_ids.size)),
                            replace=False))
    return {"graph": graph, "cfg": pipeline.RunConfig(**MIA_CONFIG), "ue": ue,
            "request": UnlearnRequest(kind="node", nodes=tuple(int(v) for v in ue))}


def directional_pass(inputs: dict, seed: int, tally: Tally) -> dict:
    graph, cfg, ue, request = (inputs[k] for k in ("graph", "cfg", "ue", "request"))
    state = tally.op("train", pipeline.train_state, graph, cfg, seed)
    retrained = tally.op("retrain", pipeline.retrain_state, graph, request, cfg, seed)
    nim = tally.op("request", pipeline.unlearn_state, state, request, cfg, seed)
    khop = tally.op("khop", pipeline.unlearn_state, state, request,
                    replace(cfg, method="khop", khop=2), seed)

    pool = graph.test_nodes()
    models = {"original": state.params, "unlearned": nim.state.params,
              "khop": khop.state.params, "retrain": retrained.params}
    aucs = {tag: tally.op("attack", evaluate.mia_attack, params, state.x_tilde,
                          ue, pool, seed).auc
            for tag, params in models.items()}

    f1 = {tag: _check_state(tally, s, tag) for tag, s in
          (("original", state), ("unlearned", nim.state), ("khop", khop.state),
           ("retrain", retrained))}
    budget = cfg.budget_for(ue.size)
    for tag, outcome in (("unlearned", nim), ("khop", khop)):
        _check_selection(tally, outcome, budget, tag)
        _check_node_removal(tally, outcome.state.graph, ue, tag)
    _check_node_removal(tally, retrained.graph, ue, "retrain")

    h = hashlib.sha256()
    for params in models.values():
        _digest_params(h, params)
    h.update(nim.hie.tobytes() + khop.hie.tobytes())
    h.update(json.dumps([f1, aucs], sort_keys=True).encode())
    return {"f1_gap_to_retrain": f1_gap(f1["unlearned"], f1["retrain"]),
            "mia_gap_to_retrain": auc_gap(aucs["unlearned"], aucs["retrain"]),
            "digest": h.hexdigest()}


# ------------------------------------------------------------ edge_poison


class _EdgePipeline:
    """The train/unlearn/test_f1 trio edge_attack_run drives.

    The fit on the clean graph is the retrain oracle (the poisoned graph
    minus the injected edges); the fit on the poisoned graph is the
    model under attack.  States are kept for the checks and the attack.
    """

    def __init__(self, cfg, seed: int, clean_graph, tally: Tally):
        self.cfg, self.seed, self.clean_graph, self.tally = cfg, seed, clean_graph, tally
        self.states: dict = {}
        self.outcome = None

    def train(self, graph):
        tag, phase = ("clean", "retrain") if graph is self.clean_graph else ("poisoned", "train")
        self.states[tag] = self.tally.op(phase, pipeline.train_state, graph, self.cfg, self.seed)
        return self.states[tag]

    def unlearn(self, state, request):
        self.outcome = self.tally.op("request", pipeline.unlearn_state,
                                     state, request, self.cfg, self.seed)
        return self.outcome.state

    def test_f1(self, state):
        return pipeline.test_f1(state)


def edge_setup(seed: int, work: Path, tally: Tally) -> dict:
    return {"graph": datagen.generate_sbm(datagen.SbmSpec(**EDGE_SPEC), seed),
            "cfg": pipeline.RunConfig(**EDGE_CONFIG)}


def edge_pass(inputs: dict, seed: int, tally: Tally) -> dict:
    """Poison, fit, unlearn the injected edges, compare with the clean fit.

    The attack view: members are injected-edge endpoints (at most half
    the test pool, drawn from the seed), probed with the poisoned
    propagated features; the gap is unlearned vs clean model.
    """
    graph, cfg = inputs["graph"], inputs["cfg"]
    pool = graph.test_nodes()
    f1_u, f1_c, auc_u, auc_c = [], [], [], []
    h = hashlib.sha256()
    for rho in EDGE_RHOS:
        pipe = _EdgePipeline(cfg, seed, graph, tally)
        report = tally.op("edge_attack", evaluate.edge_attack_run, graph, rho, pipe, seed)
        outcome, after = pipe.outcome, pipe.outcome.state.graph
        tally.check(not any(after.has_edge(u, v) for u, v in report.injected_edges),
                    f"rho={rho}: every injected edge is gone")
        _check_selection(tally, outcome, cfg.budget_for(outcome.ue.size), f"rho={rho}")
        for tag, state in (("clean", pipe.states["clean"]),
                           ("poisoned", pipe.states["poisoned"]),
                           ("unlearned", outcome.state)):
            _check_state(tally, state, f"rho={rho} {tag}")

        ends = np.unique(np.asarray(report.injected_edges, dtype=np.int64))
        members = np.random.default_rng(seed).choice(
            ends, size=min(ends.size, pool.size // 2), replace=False)
        probe = pipe.states["poisoned"].x_tilde
        for aucs, params in ((auc_u, outcome.state.params),
                             (auc_c, pipe.states["clean"].params)):
            aucs.append(tally.op("attack", evaluate.mia_attack, params, probe,
                                 members, pool, seed).auc)
        f1_u.append(report.f1_unlearned)
        f1_c.append(report.f1_clean)
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        _digest_params(h, outcome.state.params)
    h.update(json.dumps([auc_u, auc_c]).encode())
    return {"f1_gap_to_retrain": f1_gap(f1_u, f1_c),
            "mia_gap_to_retrain": auc_gap(auc_u, auc_c),
            "digest": h.hexdigest()}


# -------------------------------------------------------------- cli_chain


def cli_stage(tally: Tally, phase: str, inputs: dict) -> None:
    """One cli.main call; every stage but report fans out over the seeds."""
    stage = CLI_PHASES.get(phase, phase)
    argv = [stage, "--config", str(inputs["config"]), "--out", str(inputs["out"])]
    if phase in CLI_PHASES:
        argv += ["--seeds", inputs["seeds"]]
    code = tally.op(phase, cli.main, argv)
    tally.check(code == 0, f"cli {stage} exits 0 (got {code})")


def cli_setup(seed: int, work: Path, tally: Tally) -> dict:
    """Write the config and run the gen stage: the chain's inputs on disk."""
    config = work / "config.json"
    config.write_text(json.dumps(CLI_CONFIG, sort_keys=True), encoding="utf-8")
    first = CLI_SEEDS_PER_PASS * seed
    inputs = {"config": config, "out": work / "run",
              "seeds": f"{first}..{first + CLI_SEEDS_PER_PASS - 1}"}
    cli_stage(tally, "gen", inputs)
    return inputs


def _read_report(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {(row["stage"], row["metric"]): float(row["mean"]) for row in csv.DictReader(fh)}


def cli_digest(out: Path) -> str:
    h = hashlib.sha256()
    for pattern in CLI_COMPARED:
        for path in sorted(out.glob(pattern)):
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cli_pass(inputs: dict, seed: int, tally: Tally) -> dict:
    for phase in ("train", "request", "retrain", "attack", "report"):
        cli_stage(tally, phase, inputs)

    out = inputs["out"]
    budget_cfg = pipeline.RunConfig.from_dict(CLI_CONFIG)
    for seed_dir in sorted(out.glob("seed_*")):
        ue = np.asarray(json.loads((seed_dir / "request.json").read_text())["nodes"])
        with open(seed_dir / "hie.csv", newline="", encoding="utf-8") as fh:
            hie = np.asarray([int(row["node"]) for row in csv.DictReader(fh)], dtype=np.int64)
        tally.check(np.intersect1d(hie, ue).size == 0, f"{seed_dir.name}: HIE disjoint from UE")
        tally.check(hie.size <= budget_cfg.budget_for(ue.size),
                    f"{seed_dir.name}: |HIE| within budget")
        params = model.load_checkpoint(seed_dir / "checkpoint_unlearned.guwt")
        soft = model.predict(params, fileio.read_features(seed_dir / "features.gufm"))
        tally.check(np.abs(soft.sum(axis=1) - 1.0).max() <= 1e-9,
                    f"{seed_dir.name}: soft-label rows sum to 1")

    report = _read_report(out / "report.csv")
    f1_u = report[("unlearn", "test_f1_unlearned")]
    f1_r = report[("retrain", "test_f1_retrain")]
    for value in (f1_u, f1_r):
        tally.check(0.0 <= value <= 1.0, f"report F1 {value} lies in [0, 1]")
    return {"f1_gap_to_retrain": f1_gap(f1_u, f1_r),
            "mia_gap_to_retrain": auc_gap(report[("attack", "mia_auc_unlearned")],
                                          report[("attack", "mia_auc_retrain")]),
            "digest": cli_digest(out)}


WORKLOADS = {
    "directional": (directional_setup, directional_pass),
    "edge_poison": (edge_setup, edge_pass),
    "cli_chain": (cli_setup, cli_pass),
}
# concurrent seeds inside one pass (the CLI's --seeds fan-out)
FANOUT_THREADS = {"directional": 1, "edge_poison": 1, "cli_chain": CLI_SEEDS_PER_PASS}
