import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphunlearn import cli
from graphunlearn.cli import main
from graphunlearn.errors import ConfigError
from graphunlearn.fileio import FEATURE_MAGIC, load_graph
from graphunlearn.influence import khop_hie_capped
from graphunlearn.model import CHECKPOINT_MAGIC
from graphunlearn.pipeline import RunConfig
from graphunlearn.unlearn import read_request, transform_request

SRC = Path(__file__).resolve().parent.parent / "src"

BASE_CONFIG = {
    "datagen.n": 160, "datagen.classes": 3, "datagen.p_in": 0.08,
    "datagen.p_out": 0.02, "datagen.features": 8,
    "propagation.k": 1, "propagation.scheme": "s2gc",
    "train.epochs": 30,
    "nim.theta": 0.0, "nim.budget_multiplier": 1.0,
    "unlearn.epochs": 5, "unlearn.lambda": 0.5,
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    doc = dict(BASE_CONFIG)
    if overrides:
        doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(command, cfg, out, seed=None, seeds=None):
    argv = [command, "--config", cfg, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if seeds is not None:
        argv += ["--seeds", seeds]
    return main(argv)


def read_metrics(path):
    return [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]


def test_gen_writes_dataset_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", cfg, a, seed=3) == 0
    assert run("gen", cfg, b, seed=3) == 0
    names = ["edges.tsv", "features.gufm", "labels.tsv", "train_mask.txt",
             "test_mask.txt", "request.json", "resolved_config.json"]
    for name in names:
        assert (a / name).exists()
        assert (a / name).read_bytes() == (b / name).read_bytes()
    resolved = json.loads((a / "resolved_config.json").read_text())
    assert resolved["datagen.n"] == 160
    assert resolved["propagation.k"] == 1


def test_train_metrics_shard_content_and_rerun_identity(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    assert run("train", cfg, out) == 0
    assert (out / "checkpoint.guwt").exists()
    shard = out / "metrics_train.jsonl"
    first = shard.read_bytes()
    rows = read_metrics(shard)
    assert {r["metric"] for r in rows} == {"train_f1", "test_f1", "final_loss"}
    assert all(set(r) == {"run_id", "seed", "stage", "metric", "value"}
               for r in rows)
    assert all(r["stage"] == "train" and r["seed"] == 0 for r in rows)
    assert run("train", cfg, out) == 0
    assert shard.read_bytes() == first


def full_chain(tmp_path, overrides=None, seed=0):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    for command in ("gen", "train", "unlearn", "retrain", "attack"):
        assert run(command, cfg, out, seed=seed) == 0
    return cfg, out


def test_unlearn_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    run("gen", cfg, out)
    run("train", cfg, out)
    assert run("unlearn", cfg, out) == 0
    assert (out / "checkpoint_unlearned.guwt").exists()
    hie = (out / "hie.csv").read_text(encoding="utf-8").splitlines()
    assert hie[0] == "node,score,round"
    assert len(hie) > 1
    log = [json.loads(l) for l in
           (out / "finetune_log.jsonl").read_text().splitlines()]
    assert len(log) == 5
    assert set(log[0]) == {"epoch", "total", "target", "contrastive", "l2", "kl"}
    rows = {r["metric"]: r["value"] for r in read_metrics(out / "metrics_unlearn.jsonl")}
    request = json.loads((out / "request.json").read_text())
    assert rows["num_ue"] == len(request["nodes"])
    assert rows["num_hie"] > 0


def test_khop_unlearn_writes_its_own_hie_table(tmp_path):
    # an influence run, then a khop run, into one --out: the table left
    # behind is khop's picks with their hop counts, not the influence run's
    out = tmp_path / "run"
    influence = write_config(tmp_path)
    khop = write_config(tmp_path, {"nim.method": "khop"}, name="khop.json")
    for command in ("gen", "train", "unlearn"):
        assert run(command, influence, out) == 0
    before = (out / "hie.csv").read_text(encoding="utf-8").splitlines()
    assert run("unlearn", khop, out) == 0
    after = (out / "hie.csv").read_text(encoding="utf-8").splitlines()
    assert after != before
    graph = load_graph(*(out / name for name in ("edges.tsv", "features.gufm", "labels.tsv",
                                                 "train_mask.txt", "test_mask.txt")))
    ue = transform_request(read_request(out / "request.json"))
    expect = khop_hie_capped(graph, ue, 2, RunConfig.from_dict(BASE_CONFIG).budget_for(ue.size))
    assert expect.nodes.size > 0 and set(expect.scores) <= {1.0, 2.0}
    lines = ["node,score,round"] + [f"{v},{float(h)!r},{i}" for i, (v, h) in
                                    enumerate(zip(expect.nodes, expect.scores), start=1)]
    assert after == lines
    rows = {r["metric"]: r["value"] for r in read_metrics(out / "metrics_unlearn.jsonl")}
    assert rows["num_hie"] == expect.nodes.size


def test_attack_mia_covers_all_present_checkpoints(tmp_path):
    cfg, out = full_chain(tmp_path)
    doc = json.loads((out / "attack_mia.json").read_text())
    assert set(doc) == {"original", "unlearned", "retrain"}
    for report in doc.values():
        assert 0.0 <= report["auc"] <= 1.0
        assert report["member_count"] == report["non_member_count"]
    rows = {r["metric"] for r in read_metrics(out / "metrics_attack.jsonl")}
    assert rows == {"mia_auc_original", "mia_auc_unlearned", "mia_auc_retrain"}


def test_attack_edge_and_plot_series(tmp_path):
    overrides = {
        "datagen.n": 200, "datagen.classes": 2, "datagen.p_in": 0.04,
        "datagen.p_out": 0.01, "datagen.separation": 2.5,
        "eval.attack": "edge", "eval.rho": [0.05],
    }
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    run("gen", cfg, out)
    assert run("attack", cfg, out) == 0
    doc = json.loads((out / "attack_edge.json").read_text())
    assert len(doc) == 1 and doc[0]["rho"] == 0.05
    rows = {r["metric"] for r in read_metrics(out / "metrics_attack.jsonl")}
    assert rows == {"edge_f1_clean_rho0.05", "edge_f1_poisoned_rho0.05",
                    "edge_f1_unlearned_rho0.05"}
    assert run("report", cfg, out) == 0
    plot = (out / "plot_edge_f1.csv").read_text().splitlines()
    assert plot[0] == "x,y"
    assert plot[1].startswith("0.05,")


def test_report_aggregates_seed_shards(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    for seed in (0, 1):
        sub = out / f"seed_{seed}"
        run("gen", cfg, sub, seed=seed)
        run("train", cfg, sub, seed=seed)
    assert run("report", cfg, out) == 0

    merged = read_metrics(out / "metrics.jsonl")
    assert sorted({r["seed"] for r in merged}) == [0, 1]
    vals = [r["value"] for r in merged if r["metric"] == "test_f1"]
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "stage,metric,mean,std,count"
    line = next(l for l in report if l.startswith("train,test_f1,"))
    _, _, mean, _, count = line.split(",")
    assert float(mean) == pytest.approx(np.mean(vals), abs=1e-15)
    assert int(count) == 2


def test_report_mia_plot_series(tmp_path):
    cfg, out = full_chain(tmp_path)
    assert run("report", cfg, out) == 0
    plot = (out / "plot_mia_auc.csv").read_text().splitlines()
    assert plot[0] == "x,y"
    assert [l.split(",")[0] for l in plot[1:]] == ["original", "unlearned", "retrain"]


def test_seeds_fan_out(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out, seeds="0..2") == 0
    assert run("train", cfg, out, seeds="0..2") == 0
    for s in (0, 1, 2):
        assert (out / f"seed_{s}" / "checkpoint.guwt").exists()
    merged = read_metrics(out / "metrics.jsonl")
    assert [r["seed"] for r in merged] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_seed_dirs_other_than_seed_digits_are_not_merged(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    (out / "seed_old").mkdir(parents=True)
    assert run("gen", cfg, out, seeds="0..1") == 0
    assert run("train", cfg, out, seeds="0..1") == 0
    assert run("report", cfg, out) == 0
    merged = read_metrics(out / "metrics.jsonl")
    assert [r["seed"] for r in merged] == [0, 0, 0, 1, 1, 1]


def test_full_chain_is_byte_reproducible(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a, out_a = full_chain(tmp_path / "a")
    cfg_b, out_b = full_chain(tmp_path / "b")
    run("report", cfg_a, out_a)
    run("report", cfg_b, out_b)
    for name in ("metrics.jsonl", "report.csv", "attack_mia.json",
                 "plot_mia_auc.csv", "checkpoint_unlearned.guwt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_unknown_config_key_fails_with_error_line(tmp_path, capsys):
    # a misspelt key, and the two retired ones: nim.budget_multiplier sets
    # the budget, and the propagation weights follow from the scheme
    for key, value in (("nim.thetaa", 0.4), ("nim.budget", 5),
                       ("propagation.weights", [0.5, 0.5])):
        cfg = write_config(tmp_path, {key: value})
        assert run("gen", cfg, tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error=ConfigError unknown config key {key!r}")
        assert err.count("\n") == 1


def test_negative_khop_is_rejected_with_error_line(tmp_path, capsys):
    good = write_config(tmp_path, {"nim.method": "khop"})
    out = tmp_path / "run"
    assert run("gen", good, out) == 0
    assert run("train", good, out) == 0
    capsys.readouterr()
    bad = write_config(tmp_path, {"nim.method": "khop", "nim.khop": -1}, name="bad.json")
    assert run("unlearn", bad, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError")
    assert "nim.khop" in err and err.count("\n") == 1


@pytest.mark.parametrize("overrides, key", [
    ({"unlearn.positives": -1}, "unlearn.positives"),
    ({"unlearn.negatives": -1}, "unlearn.negatives"),
    ({"datagen.ue_fraction": 2.0}, "datagen.ue_fraction"),
    ({"datagen.ue_fraction": -0.5}, "datagen.ue_fraction"),
    ({"datagen.ue_fraction": 0.0}, "datagen.ue_fraction"),
    ({"propagation.k": -1}, "propagation.k"),
    ({"train.lr": -0.01}, "train.lr"),
    ({"train.weight_decay": -1e-4}, "train.weight_decay"),
    ({"train.epochs": -1}, "train.epochs"),
    ({"unlearn.lr": -0.01}, "unlearn.lr"),
    ({"unlearn.epochs": -1}, "unlearn.epochs"),
    ({"unlearn.lambda": 1.5}, "unlearn.lambda"),
    ({"unlearn.lambda": -0.5}, "unlearn.lambda"),
    ({"unlearn.tau": 0.0}, "unlearn.tau"),
    ({"unlearn.l2_coef": -1.0}, "unlearn.l2_coef"),
    ({"propagation.r": 1.5}, "propagation.r"),
    ({"propagation.r": -0.5}, "propagation.r"),
    ({"propagation.scheme": "appnp"}, "propagation.scheme"),
    ({"propagation.scheme": "custom"}, "propagation.scheme"),
    ({"propagation.scheme": "gbp", "propagation.beta": 0.0}, "propagation.beta"),
    ({"model.mode": "gcn"}, "model.mode"),
    ({"model.mode": "linear"}, "model.mode"),
    ({"model.mode": "mlp", "model.hidden": 0}, "model.hidden"),
    ({"nim.theta": -0.1}, "nim.theta"),
    ({"nim.mode": "greedy"}, "nim.mode"),
    ({"eval.attack": "edge", "eval.rho": []}, "eval.rho"),
], ids=["negative-positives",
        "negative-negatives", "ue-fraction-2", "ue-fraction-neg", "ue-fraction-0",
        "negative-k", "negative-train-lr", "negative-weight-decay", "negative-train-epochs",
        "negative-unlearn-lr", "negative-unlearn-epochs", "lambda-above-1",
        "lambda-below-0", "tau-0", "negative-l2-coef", "r-above-1", "r-below-0",
        "unknown-scheme", "custom-scheme", "gbp-beta-0", "unknown-model-mode",
        "linear-model-mode", "mlp-hidden-0", "negative-theta", "unknown-nim-mode",
        "empty-rho"])
def test_out_of_range_config_value_fails_with_error_line(tmp_path, capsys, overrides, key):
    out = tmp_path / "run"
    assert run("gen", write_config(tmp_path, overrides), out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError")
    assert key in err and err.count("\n") == 1
    assert not (out / "request.json").exists()


@pytest.mark.parametrize("fields, key", [({"l2_coef": -1.0}, "unlearn.l2_coef"),
                                         ({"scheme": "appnp"}, "propagation.scheme"),
                                         ({"theta": float("nan")}, "nim.theta"),
                                         ({"budget_multiplier": float("inf")},
                                          "nim.budget_multiplier"),
                                         ({"epochs": 2.5}, "train.epochs"),
                                         ({"hidden": True}, "model.hidden"),
                                         ({"rho": 0.2}, "eval.rho")])
def test_directly_built_config_is_validated(fields, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        RunConfig(**fields)
    with pytest.raises(ConfigError, match=re.escape(key)):
        dataclasses.replace(RunConfig(), **fields)


def test_config_keymap_names_every_field_once():
    names = sorted(RunConfig._KEYMAP.values())
    assert names == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_config_round_trips_through_json():
    # every field off its default, except model.mode, which has one legal value
    cfg = RunConfig(
        edges="e.tsv", features="f.gufm", labels="l.tsv", train_mask="tr.txt",
        test_mask="te.txt", request="r.json", gen_n=100, gen_classes=3, gen_p_in=0.1,
        gen_p_out=0.01, gen_features=8, gen_separation=1.5, gen_train_fraction=0.7,
        gen_ue_fraction=0.2, scheme="gbp", k=2, r=0.4, beta=0.3, hidden=8, lr=0.02,
        weight_decay=0.0, epochs=10, theta=0.4, budget_multiplier=2.0,
        selection_mode="static", method="khop", khop=3, lam=0.3, finetune_lr=0.02,
        finetune_epochs=7, tau=0.7, positives=3, negatives=4, l2_coef=1e-3,
        attack="edge", rho=(0.1, 0.3), seed=5)
    default = RunConfig()
    assert [f.name for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) == getattr(default, f.name)] == ["mode"]
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_resolved_config_loads_back_as_config(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", write_config(tmp_path), a) == 0
    assert run("gen", str(a / "resolved_config.json"), b) == 0
    assert (a / "resolved_config.json").read_bytes() == (b / "resolved_config.json").read_bytes()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_no_final_loss_when_no_epoch_ran(tmp_path):
    cfg = write_config(tmp_path, {"train.epochs": 0, "unlearn.epochs": 0})
    out = tmp_path / "run"
    for command in ("gen", "train", "unlearn", "report"):
        assert run(command, cfg, out) == 0
    for name in ("metrics_train.jsonl", "metrics_unlearn.jsonl", "metrics.jsonl"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        rows = [json.loads(l, parse_constant=_reject_constant) for l in lines]
        assert rows and all(r["metric"] != "final_loss" for r in rows), name


def _nan_weight(out):
    """Overwrite the checkpoint's first weight (after the 29-byte header) with NaN."""
    path = out / "checkpoint.guwt"
    raw = bytearray(path.read_bytes())
    raw[29:37] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))


_TRAIN_OUTPUTS = ("checkpoint.guwt", "metrics_train.jsonl")
_UNLEARN_OUTPUTS = ("checkpoint_unlearned.guwt", "finetune_log.jsonl", "hie.csv",
                    "metrics_unlearn.jsonl")


@pytest.mark.parametrize("stage, overrides, corrupt, message", [
    # exp(cos / tau) overflows at this tau; at lam = 0 the contrastive
    # term weighs nothing but is still computed
    ("unlearn", {"unlearn.tau": 0.001, "unlearn.lambda": 0.0}, False,
     r"fine-tune objective is not finite at epoch 0: [^\n]*"),
    ("unlearn", {"unlearn.tau": 0.001, "unlearn.lambda": 0.5}, False,
     r"fine-tune objective is not finite at epoch 0: [^\n]*"),
    # the first step throws the weights to about 1e300, so the next loss overflows
    ("train", {"train.lr": 1e300}, False,
     r"training objective is not finite at epoch 1: cross_entropy nan"),
    # one epoch: its loss is finite, but the stepped weights' predictions are not
    ("train", {"train.lr": 1e300, "train.epochs": 1}, False,
     r"predictions are not finite: [^\n]*"),
    ("unlearn", {}, True, r"predictions are not finite: [^\n]*"),
], ids=["finetune-lam0", "finetune-lam0.5", "train-30-epochs", "train-1-epoch",
        "unlearn-nan-checkpoint"])
def test_nonfinite_stage_fails_before_writing(tmp_path, stage, overrides, corrupt, message):
    # a fresh interpreter, so the real stderr shows any numpy warning as well
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    for command in ("gen",) if stage == "train" else ("gen", "train"):
        assert run(command, cfg, out) == 0
    if corrupt:
        _nan_weight(out)
    proc = subprocess.run(
        [sys.executable, "-m", "graphunlearn.cli", stage, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120)
    assert proc.returncode == 1
    assert re.fullmatch(f"error=DataError {message}\n", proc.stderr), proc.stderr
    for name in _TRAIN_OUTPUTS if stage == "train" else _UNLEARN_OUTPUTS:
        assert not (out / name).exists(), name


def test_negative_seed_fails_with_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("gen", write_config(tmp_path), out, seed=-1) == 1
    from_flag = capsys.readouterr().err
    assert run("gen", write_config(tmp_path, {"seed": -1}), out) == 1
    from_config = capsys.readouterr().err
    for err in (from_flag, from_config):
        assert err.startswith("error=ConfigError")
        assert "seed" in err and err.count("\n") == 1
    assert not (out / "edges.tsv").exists()


# nim.budget and propagation.weights are retired keys: whatever their
# value, they fail as unknown keys, which name the key just the same
@pytest.mark.parametrize("key, value", [("propagation.k", "two"), ("nim.budget", "5"),
                                        ("propagation.weights", 3), ("eval.rho", "x"),
                                        # json.loads takes NaN and Infinity
                                        ("train.lr", float("nan")),
                                        ("unlearn.tau", float("inf")),
                                        ("propagation.weights", [1.0, float("-inf")]),
                                        ("eval.rho", [0.2, float("-inf")]),
                                        # a list is the one spelling of eval.rho
                                        ("eval.rho", 0.2)])
def test_mistyped_config_value_fails_with_error_line(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run("gen", write_config(tmp_path), out) == 0
    capsys.readouterr()
    bad = write_config(tmp_path, {key: value}, name="bad.json")
    assert run("train", bad, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError")
    assert key in err and err.count("\n") == 1


@pytest.mark.parametrize("stage, key, value", [
    ("gen", "datagen.features", 10 ** 15),
    ("train", "model.hidden", 10 ** 15),
    ("train", "propagation.k", 10 ** 30),
    ("train", "model.hidden", 2 ** 62),
    ("gen", "datagen.n", 2 ** 62),
    ("train", "seed", 2 ** 31),
], ids=["gen-datagen.features", "train-model.hidden", "train-propagation.k-1e30",
        "train-model.hidden-2e62", "gen-datagen.n-2e62", "train-seed-2e31"])
def test_config_int_beyond_limit_fails_with_error_line(tmp_path, capsys, stage, key, value):
    # only values the validator rejects: a value just under the limit
    # would have the stage try to allocate it
    out = tmp_path / "run"
    assert run("gen", write_config(tmp_path), out) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(stage, write_config(tmp_path, {key: value}, name="big.json"), out) == 1
    err = capsys.readouterr().err
    assert err == f"error=ConfigError {key} must be at most {2 ** 31 - 1}, got {value}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


class _ArrayMemoryError(MemoryError):
    """Named like the MemoryError subclass numpy raises on a failed allocation."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_failed_allocation_fails_with_one_memory_error_line(tmp_path, capsys, monkeypatch,
                                                           error):
    # a stage that raises stands in for one whose allocation fails, so
    # nothing is allocated
    def stage(cfg, out, seed):
        raise error("unable to allocate 8.00 PiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "train", stage)
    assert run("train", write_config(tmp_path), tmp_path / "run") == 1
    assert capsys.readouterr().err == \
        "error=MemoryError unable to allocate 8.00 PiB for an array\n"


@pytest.mark.parametrize("name,data", [
    ("labels.tsv", b"\xff\xfe\n"),
    ("edges.tsv", b"0\t1\n0\t99999999999999999999\n"),
    ("labels.tsv", b"1\t0\n0\t99999999999999999999\n"),
    ("labels.tsv", b"1\t0\n1\t3\n"),
    ("labels.tsv", b"1\t0\n0\t1000000000000\n"),
    ("labels.tsv", b"1\t0\n0\t-5\n"),
    ("edges.tsv", b"0\t1\n0\t500\n"),
    ("features.gufm", FEATURE_MAGIC + struct.pack("<QQ", 2 ** 60, 0)),
], ids=["non-utf8", "edge-beyond-int64", "label-beyond-int64", "label-twice",
        "label-class-beyond-n", "label-class-below-unlabeled", "edge-endpoint-beyond-n",
        "features-zero-columns"])
def test_malformed_input_file_fails_with_data_error_line(tmp_path, capsys, name, data):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    (out / name).write_bytes(data)
    capsys.readouterr()
    assert run("train", cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=DataError") and err.count("\n") == 1
    assert name in err


def test_empty_feature_file_fails_with_one_error_line(tmp_path):
    # a fresh interpreter, so the real stderr shows any warning as well
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    (out / "features.gufm").write_bytes(b"")
    proc = subprocess.run(
        [sys.executable, "-m", "graphunlearn.cli", "train", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"error=DataError {out / 'features.gufm'}: feature file holds no data\n"


def test_checkpoint_dims_beyond_int64_fail_with_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    # an mlp header (f, h, c) = (2^62, 4, 1): w_emb's 2^64 floats wrap to 0
    # in int64, which would leave 9 floats of tensors, 101 bytes in all
    header = CHECKPOINT_MAGIC + b"\x01" + struct.pack("<3Q", 2 ** 62, 4, 1)
    (out / "checkpoint.guwt").write_bytes(header + bytes(8 * 9))
    capsys.readouterr()
    assert run("unlearn", cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=CheckpointError") and err.count("\n") == 1


@pytest.mark.parametrize("request_doc", [
    {"kind": "node", "nodes": ["a"]},
    {"kind": "node", "nodes": 5},
    {"kind": "edge", "edges": [1, 2]},
    {"kind": "node", "nodes": [1.5]},
    {"kind": "node", "nodes": [True]},
    {"kind": "node", "nodes": [1, 10 ** 23]},
    {"kind": "edge", "edges": [[0, 1, 2]]},
    {"kind": "edge", "edges": [[0.5, 3.2]]},
    {"kind": "edge", "edges": [[0, 1]], "node": [5], "weight": 2},
], ids=["string-node", "scalar-nodes", "flat-edges", "float-node", "bool-node", "huge-node",
        "triple-edge", "float-edge", "unknown-key"])
def test_malformed_request_fails_with_error_line(tmp_path, capsys, request_doc):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    (out / "request.json").write_text(json.dumps(request_doc), encoding="utf-8")
    capsys.readouterr()
    assert run("unlearn", cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError") and err.count("\n") == 1


@pytest.mark.parametrize("stage", ["unlearn", "retrain", "attack"])
def test_request_node_beyond_int64_fails_with_error_line_in_every_stage(tmp_path, capsys,
                                                                       stage):
    # an id beyond int64 must fail at the request, not overflow in transform_request
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    assert run("train", cfg, out) == 0
    (out / "request.json").write_text(json.dumps({"kind": "node", "nodes": [0, 10 ** 23]}),
                                      encoding="utf-8")
    capsys.readouterr()
    assert run(stage, cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError request node ids must be integers")
    assert err.count("\n") == 1


@pytest.mark.parametrize("node", [-1, BASE_CONFIG["datagen.n"]])
@pytest.mark.parametrize("stage, overrides", [
    ("unlearn", {}), ("unlearn", {"nim.method": "khop"}), ("retrain", {}), ("attack", {}),
], ids=["unlearn-influence", "unlearn-khop", "retrain", "attack"])
def test_request_node_out_of_range_fails_alike_in_every_stage(tmp_path, capsys, stage,
                                                              overrides, node):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    assert run("train", cfg, out) == 0
    (out / "request.json").write_text(json.dumps({"kind": "node", "nodes": [0, node]}),
                                      encoding="utf-8")
    capsys.readouterr()
    assert run(stage, cfg, out) == 1
    n = BASE_CONFIG["datagen.n"]
    assert capsys.readouterr().err == f"error=IndexError request node {node} outside [0, {n})\n"


def test_out_below_regular_file_fails_with_io_error_line(tmp_path, capsys):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert run("gen", write_config(tmp_path), tmp_path / "afile" / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error=IoError") and err.count("\n") == 1


def test_report_into_directory_fails_with_io_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run("gen", cfg, out) == 0
    assert run("train", cfg, out) == 0
    (out / "report.csv").mkdir()
    capsys.readouterr()
    assert run("report", cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=IoError") and err.count("\n") == 1
    assert "report.csv" in err


def test_bad_seed_range_and_missing_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run("train", cfg, tmp_path / "run", seeds="5..2") == 1
    assert capsys.readouterr().err.startswith("error=ConfigError")
    huge = "0..99999999999999999999"
    assert run("gen", cfg, tmp_path / "run", seeds=huge) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=ConfigError") and huge in err and err.count("\n") == 1
    assert run("train", cfg, tmp_path / "empty") == 1
    assert capsys.readouterr().err.startswith("error=IoError")


def test_console_entry_point_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "graphunlearn.cli", "gen",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "edges.tsv").exists()


def test_import_loads_neither_stats_nor_csgraph():
    # a fresh interpreter, so modules other tests imported do not count
    probe = ("import sys, graphunlearn.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.sparse.csgraph') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
