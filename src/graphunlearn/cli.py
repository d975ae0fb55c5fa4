"""Command line: gen, train, unlearn, retrain, attack, report.

Every stage reads and writes files under --out with fixed names, so the
stages chain without extra wiring:

    graphunlearn gen     --config cfg.json --out run/ --seed 1
    graphunlearn train   --config cfg.json --out run/ --seed 1
    graphunlearn unlearn --config cfg.json --out run/ --seed 1
    graphunlearn retrain --config cfg.json --out run/ --seed 1
    graphunlearn attack  --config cfg.json --out run/ --seed 1
    graphunlearn report  --config cfg.json --out run/

Each stage overwrites its own metrics shard (metrics_<stage>.jsonl), and
report merges the shards into metrics.jsonl, so re-running a stage with
unchanged inputs reproduces its outputs byte for byte.  --seeds a..b
fans one stage out over a seed range concurrently, one subdirectory per
seed, merged in seed order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from .datagen import SbmSpec, generate_sbm
from .errors import ConfigError, GraphUnlearnError
from .evaluate import edge_attack_run, f1_score, mia_attack
from .fileio import (load_graph, make_dir, read_json_object, read_text,
                     save_graph, write_text)
from .influence import write_hie_csv
from .model import load_checkpoint, save_checkpoint
from .pipeline import (Pipeline, RunConfig, loaded_state, propagate_graph,
                       retrain_state, test_f1, train_state, unlearn_state)
from .unlearn import UnlearnRequest, check_request, read_request, write_request

STAGES = ("gen", "train", "unlearn", "retrain", "attack")

_FILES = {
    "edges": "edges.tsv", "features": "features.gufm", "labels": "labels.tsv",
    "train_mask": "train_mask.txt", "test_mask": "test_mask.txt",
    "request": "request.json",
}


def _data_path(cfg: RunConfig, out: Path, name: str) -> str:
    configured = getattr(cfg, name)
    return configured if configured else str(out / _FILES[name])


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.from_dict(read_json_object(path, "config"))


def _run_id(cfg: RunConfig, seed: int) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True) + f"|{seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_metrics(out: Path, stage: str, cfg: RunConfig, seed: int, values: dict) -> None:
    run_id = _run_id(cfg, seed)
    lines = [json.dumps({"run_id": run_id, "seed": seed, "stage": stage,
                         "metric": metric, "value": value}, sort_keys=True)
             for metric, value in values.items()]
    write_text(out / f"metrics_{stage}.jsonl", "".join(l + "\n" for l in lines))


def _load_dataset(cfg: RunConfig, out: Path):
    return load_graph(*(_data_path(cfg, out, name) for name in
                        ("edges", "features", "labels", "train_mask", "test_mask")))


def cmd_gen(cfg: RunConfig, out: Path, seed: int) -> None:
    """Draw an SBM graph, write its files plus a default node request."""
    spec = SbmSpec(n=cfg.gen_n, classes=cfg.gen_classes, p_in=cfg.gen_p_in,
                   p_out=cfg.gen_p_out, num_features=cfg.gen_features,
                   separation=cfg.gen_separation,
                   train_fraction=cfg.gen_train_fraction)
    graph = generate_sbm(spec, seed)
    save_graph(graph, out / _FILES["edges"], out / _FILES["features"],
               out / _FILES["labels"], out / _FILES["train_mask"],
               out / _FILES["test_mask"])

    rng = np.random.default_rng(seed + 1)
    train_ids = graph.train_nodes()
    count = max(1, int(round(cfg.gen_ue_fraction * train_ids.size)))
    ue = np.sort(rng.choice(train_ids, size=count, replace=False))
    write_request(UnlearnRequest(kind="node", nodes=ue), out / _FILES["request"])
    write_text(out / "resolved_config.json",
               json.dumps(cfg.to_dict(), sort_keys=True, indent=1) + "\n")


def cmd_train(cfg: RunConfig, out: Path, seed: int) -> None:
    graph = _load_dataset(cfg, out)
    state = train_state(graph, cfg, seed)
    save_checkpoint(state.params, out / "checkpoint.guwt")
    pred = np.argmax(state.soft, axis=1)
    metrics = {"train_f1": f1_score(pred, graph.labels, graph.train_mask),
               "test_f1": test_f1(state)}
    if state.history:
        metrics["final_loss"] = state.history[-1]
    _write_metrics(out, "train", cfg, seed, metrics)


def cmd_unlearn(cfg: RunConfig, out: Path, seed: int) -> None:
    graph = _load_dataset(cfg, out)
    request = read_request(_data_path(cfg, out, "request"))
    params = load_checkpoint(out / "checkpoint.guwt")
    state = loaded_state(graph, cfg, params)

    outcome = unlearn_state(state, request, cfg, seed)
    save_checkpoint(outcome.state.params, out / "checkpoint_unlearned.guwt")
    write_hie_csv(outcome.selection, out / "hie.csv")
    log_lines = [json.dumps(e, sort_keys=True) for e in outcome.log.epochs]
    write_text(out / "finetune_log.jsonl", "".join(l + "\n" for l in log_lines))
    metrics = {"num_ue": int(outcome.ue.size), "num_hie": int(outcome.selection.nodes.size),
               "test_f1_unlearned": test_f1(outcome.state)}
    if outcome.log.epochs:
        metrics["final_loss"] = outcome.log.epochs[-1]["total"]
    _write_metrics(out, "unlearn", cfg, seed, metrics)


def cmd_retrain(cfg: RunConfig, out: Path, seed: int) -> None:
    graph = _load_dataset(cfg, out)
    request = read_request(_data_path(cfg, out, "request"))
    state = retrain_state(graph, request, cfg, seed)
    save_checkpoint(state.params, out / "checkpoint_retrain.guwt")
    _write_metrics(out, "retrain", cfg, seed, {"test_f1_retrain": test_f1(state)})


def cmd_attack(cfg: RunConfig, out: Path, seed: int) -> None:
    """Membership inference on existing checkpoints, or an edge attack."""
    graph = _load_dataset(cfg, out)
    metrics: dict = {}
    if cfg.attack == "mia":
        ue = check_request(graph, read_request(_data_path(cfg, out, "request")))
        _, x_tilde = propagate_graph(graph, cfg)
        pool = graph.test_nodes()
        reports = {}
        for tag, ckpt in (("original", "checkpoint.guwt"),
                          ("unlearned", "checkpoint_unlearned.guwt"),
                          ("retrain", "checkpoint_retrain.guwt")):
            path = out / ckpt
            if not path.exists():
                continue
            params = load_checkpoint(path)
            report = mia_attack(params, x_tilde, ue, pool, seed)
            reports[tag] = report.to_dict()
            metrics[f"mia_auc_{tag}"] = report.auc
        write_text(out / "attack_mia.json", json.dumps(reports, sort_keys=True) + "\n")
    else:
        pipeline = Pipeline(cfg, seed)
        reports = []
        for rho in cfg.rho:
            report = edge_attack_run(graph, rho, pipeline, seed)
            reports.append(report.to_dict())
            for which in ("clean", "poisoned", "unlearned"):
                metrics[f"edge_f1_{which}_rho{rho:g}"] = getattr(report, f"f1_{which}")
        write_text(out / "attack_edge.json", json.dumps(reports, sort_keys=True) + "\n")
    _write_metrics(out, "attack", cfg, seed, metrics)


def _merge_metrics(out: Path) -> list:
    """Collect stage shards (and per-seed shards) into metrics.jsonl.

    Returns the merged lines, so report need not read the file back.
    """
    lines = []
    seed_dirs = sorted((d for d in out.glob("seed_*")
                        if re.fullmatch(r"seed_\d+", d.name) and d.is_dir()),
                       key=lambda d: int(d.name[5:]))
    scopes = seed_dirs if seed_dirs else [out]
    for scope in scopes:
        for stage in STAGES:
            shard = scope / f"metrics_{stage}.jsonl"
            if shard.exists():
                lines.extend(read_text(shard).splitlines())
    write_text(out / "metrics.jsonl", "".join(l + "\n" for l in lines))
    return lines


def cmd_report(cfg: RunConfig, out: Path, seed: int) -> None:
    """Aggregate metrics across seeds into a CSV plus plot-ready series."""
    groups: dict = {}
    for row in map(json.loads, _merge_metrics(out)):
        groups.setdefault((row["stage"], row["metric"]), []).append(float(row["value"]))

    lines = ["stage,metric,mean,std,count\n"]
    for (stage, metric) in sorted(groups):
        vals = np.asarray(groups[(stage, metric)])
        lines.append(f"{stage},{metric},{float(vals.mean())!r},{float(vals.std())!r},{vals.size}\n")
    write_text(out / "report.csv", "".join(lines))

    auc_lines = ["x,y\n"]
    for tag in ("original", "unlearned", "retrain"):
        key = ("attack", f"mia_auc_{tag}")
        if key in groups:
            auc_lines.append(f"{tag},{float(np.mean(groups[key]))!r}\n")
    write_text(out / "plot_mia_auc.csv", "".join(auc_lines))

    f1_lines = ["x,y\n"]
    by_rho = {}
    for (stage, metric), vals in groups.items():
        m = re.fullmatch(r"edge_f1_unlearned_rho(.+)", metric)
        if stage == "attack" and m:
            by_rho[float(m.group(1))] = float(np.mean(vals))
    for rho in sorted(by_rho):
        f1_lines.append(f"{rho!r},{by_rho[rho]!r}\n")
    write_text(out / "plot_edge_f1.csv", "".join(f1_lines))


_COMMANDS = {"gen": cmd_gen, "train": cmd_train, "unlearn": cmd_unlearn,
             "retrain": cmd_retrain, "attack": cmd_attack, "report": cmd_report}


def _parse_seed_range(text: str):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ConfigError(f"--seeds wants a range like 0..19, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if b < a:
        raise ConfigError(f"--seeds range is empty: {text}")
    if b - a >= 2 ** 16:  # one run directory and one queued task per seed, made up front
        raise ConfigError(f"--seeds range holds more than 65536 seeds: {text}")
    return list(range(a, b + 1))


def _run_one(command: str, cfg: RunConfig, out: Path, seed: int) -> None:
    make_dir(out)
    _COMMANDS[command](cfg, out, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphunlearn",
        description="graph unlearning pipeline: generate, train, unlearn, attack, report")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config with flat dotted keys")
    parser.add_argument("--seed", type=int, default=None, help="run seed (default: config seed)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seeds", help="seed range a..b; runs one subdirectory per seed")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        if args.seeds and args.command != "report":
            seeds = _parse_seed_range(args.seeds)
            make_dir(out)
            with concurrent.futures.ThreadPoolExecutor(max_workers=min(8, len(seeds))) as pool:
                futures = [pool.submit(_run_one, args.command, cfg, out / f"seed_{s}", s)
                           for s in seeds]
                for f in futures:
                    f.result()
            _merge_metrics(out)
        else:
            _run_one(args.command, cfg, out, seed)
    except (GraphUnlearnError, IndexError, MemoryError) as exc:
        # numpy's failed allocations raise a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error={name} {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
