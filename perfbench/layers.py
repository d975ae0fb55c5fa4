"""Which library calls the traced pass wraps, and the per-layer metrics.

One layer per library module.  Each target names the function at its
defining module; spans.install then wraps it wherever it is bound.
Counters are read off the call's arguments and result, so the library
itself carries no tracing code.

Metric suffixes: ``.s`` is the summed self time of the layer's spans,
``.calls`` the number of spans, everything else a counter or a ratio
derived from counters and span durations.
"""

from __future__ import annotations

import os

import numpy as np

from spans import self_times

# (module, function, span name); targets with counters are in _COUNTED
_PLAIN = [
    ("datagen", "generate_sbm", "datagen.generate_sbm"),
    ("graph", "normalized_adjacency", "graph.normalized_adjacency"),
    ("graph", "build_graph", "graph.build_graph"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("influence", "khop_hie_capped", "influence.khop_hie_capped"),
    ("unlearn", "apply_removal", "unlearn.apply_removal"),
    ("unlearn", "label_shuffle_loss", "unlearn.label_shuffle_loss"),
    ("unlearn", "prototype_loss", "unlearn.prototype_loss"),
    ("unlearn", "contrastive_loss", "unlearn.contrastive_loss"),
    ("unlearn", "reasoning_loss", "unlearn.reasoning_loss"),
    ("evaluate", "mia_attack", "evaluate.mia_attack"),
    ("evaluate", "sample_noise_edges", "evaluate.sample_noise_edges"),
    ("evaluate", "edge_attack_run", "evaluate.edge_attack_run"),
    ("fileio", "load_graph", "fileio.load_graph"),
    ("pipeline", "train_state", "pipeline.train_state"),
    ("pipeline", "unlearn_state", "pipeline.unlearn_state"),
    ("pipeline", "retrain_state", "pipeline.retrain_state"),
    ("pipeline", "loaded_state", "pipeline.loaded_state"),
]

CLI_STAGES = ("gen", "train", "unlearn", "retrain", "attack", "report")


def _propagate_counts(call, out):
    """Computed, not measured: k sparse-dense products over f columns."""
    matrix = call["op"].matrix
    k = int(call["config"].k)
    n, nnz = matrix.shape[0], int(matrix.nnz)
    f = 1 if np.ndim(out) == 1 else int(np.shape(out)[1])
    # each product: one multiply-add per stored entry and column, reading
    # values, column indices and the input block, writing the output block
    return {"flops": 2 * nnz * f * k,
            "bytes": k * (nnz * (8 + matrix.indices.itemsize) + 2 * n * f * 8)}


def _train_counts(call, out):
    return {"epochs": len(out[1])}


def _select_counts(call, out):
    ue = np.unique(np.asarray(call["ue"]))
    picked = len(out.nodes)
    columns = ue.size + (picked if call["mode"] == "expanding" else 0)
    return {"seed_columns": int(columns), "picked": picked, "budget": int(call["budget"])}


def _partition_counts(call, part):
    rows = np.unique(np.concatenate([part.ue, part.hie, *part.positives, *part.negatives]))
    return {"ue": int(part.ue.size), "hie": int(part.hie.size),
            "working_set_rows": int(rows.size),
            "anchors_skipped": sum(1 for pos in part.positives if len(pos) == 0)}


def _finetune_counts(call, out):
    return {"epochs": len(out[1].epochs)}


def _save_graph_counts(call, out):
    paths = [call[name] for name in ("edge_path", "feature_path", "label_path",
                                     "train_mask_path", "test_mask_path")]
    return {"bytes_written": sum(os.path.getsize(p) for p in paths)}


_COUNTED = [
    ("graph", "propagate", "graph.propagate", _propagate_counts),
    ("model", "train", "model.train", _train_counts),
    ("influence", "select_hie", "influence.select_hie", _select_counts),
    ("unlearn", "prepare_partition", "unlearn.prepare_partition", _partition_counts),
    ("unlearn", "finetune", "unlearn.finetune", _finetune_counts),
    ("fileio", "save_graph", "fileio.save_graph", _save_graph_counts),
]


def targets(package):
    """Target rows for spans.install, resolved against the imported package."""
    rows = [(getattr(package, mod), fn, name, None) for mod, fn, name in _PLAIN]
    rows += [(getattr(package, mod), fn, name, counts) for mod, fn, name, counts in _COUNTED]
    rows += [(package.cli, f"cmd_{stage}", f"cli.{stage}", None) for stage in CLI_STAGES]
    return rows


# name -> unit for every per-layer metric the traced pass reports
LAYER_METRICS = {
    "datagen.generate_sbm.s": "s",
    "graph.normalized_adjacency.s": "s", "graph.normalized_adjacency.calls": "count",
    "graph.propagate.s": "s", "graph.propagate.calls": "count",
    "graph.propagate.flops": "computed_flop", "graph.propagate.bytes": "computed_B",
    "graph.build_graph.s": "s", "graph.build_graph.calls": "count",
    "model.train.s": "s", "model.train.calls": "count",
    "model.train.epochs": "count", "model.train.epoch_ms": "ms",
    "model.checkpoint.s": "s",
    "influence.select_hie.s": "s", "influence.seed_columns": "count",
    "influence.picked": "count", "influence.pick_ratio": "ratio",
    "influence.khop_hie_capped.s": "s",
    "unlearn.apply_removal.s": "s", "unlearn.prepare_partition.s": "s",
    "unlearn.finetune.s": "s", "unlearn.finetune.epochs": "count",
    "unlearn.finetune.epoch_ms": "ms",
    "unlearn.label_shuffle_loss.s": "s", "unlearn.prototype_loss.s": "s",
    "unlearn.contrastive_loss.s": "s", "unlearn.reasoning_loss.s": "s",
    "unlearn.ue": "count", "unlearn.hie": "count",
    "unlearn.working_set_rows": "count", "unlearn.anchors_skipped": "count",
    "evaluate.mia_attack.s": "s", "evaluate.mia_attack.calls": "count",
    "evaluate.sample_noise_edges.s": "s", "evaluate.edge_attack_run.s": "s",
    "fileio.load_graph.s": "s", "fileio.load_graph.calls": "count",
    "fileio.save_graph.s": "s", "fileio.bytes_written": "B",
    "pipeline.train_state.s": "s", "pipeline.unlearn_state.s": "s",
    "pipeline.retrain_state.s": "s", "pipeline.loaded_state.s": "s",
    **{f"cli.{stage}.s": "s" for stage in CLI_STAGES},
    "cli.fanout_threads": "count", "cli.fanout_efficiency": "ratio",
}


# Times of calls that only one of the gated workloads (edge_poison,
# cli_chain) makes, or neither.  They read exactly 0.0 on every run of the
# other workload, and a time that never changes cannot be told from one
# that was never measured, so they are printed and kept in the results
# file but left out of the JSON line.
ONE_WORKLOAD_TIMES = {
    "model.checkpoint.s", "influence.khop_hie_capped.s",
    "evaluate.sample_noise_edges.s", "evaluate.edge_attack_run.s",
    "fileio.load_graph.s", "fileio.save_graph.s",
    "pipeline.retrain_state.s", "pipeline.loaded_state.s",
    *(f"cli.{stage}.s" for stage in CLI_STAGES),
}
REPORTED_METRICS = {name: unit for name, unit in LAYER_METRICS.items()
                    if name not in ONE_WORKLOAD_TIMES}


def layer_metrics(spans, stage_walls: dict) -> dict:
    """Per-layer metric values from one traced pass.

    stage_walls maps a CLI stage to the wall time of the cli.main call
    that ran it, for the fan-out efficiency; it is empty for passes that
    do not go through the command line.
    """
    own = self_times(spans)
    self_s, calls, total, counts = {}, {}, {}, {}
    for span in spans:
        name = span["name"]
        self_s[name] = self_s.get(name, 0.0) + own[span["id"]]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        for key, value in span["counters"].items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    out = {}
    for metric in LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = self_s.get(name, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(name, 0)
    out["model.checkpoint.s"] = (self_s.get("model.save_checkpoint", 0.0)
                                 + self_s.get("model.load_checkpoint", 0.0))
    for metric in ("graph.propagate.flops", "graph.propagate.bytes",
                   "unlearn.finetune.epochs", "model.train.epochs"):
        out[metric] = counts.get(metric, 0)
    out["model.train.epoch_ms"] = 1e3 * ratio(total.get("model.train", 0.0),
                                              counts.get("model.train.epochs", 0))
    out["unlearn.finetune.epoch_ms"] = 1e3 * ratio(total.get("unlearn.finetune", 0.0),
                                                   counts.get("unlearn.finetune.epochs", 0))
    for key in ("seed_columns", "picked"):
        out[f"influence.{key}"] = counts.get(f"influence.select_hie.{key}", 0)
    out["influence.pick_ratio"] = ratio(counts.get("influence.select_hie.picked", 0),
                                        counts.get("influence.select_hie.budget", 0))
    for key in ("ue", "hie", "working_set_rows", "anchors_skipped"):
        out[f"unlearn.{key}"] = counts.get(f"unlearn.prepare_partition.{key}", 0)
    out["fileio.bytes_written"] = counts.get("fileio.save_graph.bytes_written", 0)

    threads, busy, capacity = 0, 0.0, 0.0
    for stage, wall in stage_walls.items():
        stage_spans = [s for s in spans if s["name"] == f"cli.{stage}"]
        used = len({s["thread"] for s in stage_spans})
        threads = max(threads, used)
        busy += sum(s["end"] - s["start"] for s in stage_spans)
        capacity += used * wall
    out["cli.fanout_threads"] = threads
    out["cli.fanout_efficiency"] = ratio(busy, capacity)
    return out
