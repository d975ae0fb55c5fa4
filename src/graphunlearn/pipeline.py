"""End-to-end stages shared by the command line and the test harnesses.

A PipelineState bundles a graph with its propagation operator, the
propagated features, and trained parameters.  Unlearning consumes a
trained state and a request and produces a new state on the post-removal
graph, together with the selection and fine-tune artifacts.  Influence
is always scored on the state's own (pre-removal) operator and
predictions, because that is the propagation the model was trained
with; the removal only changes what fine-tuning and later inference see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .errors import ConfigError, DataError
from .graph import (Graph, PropagationConfig, SparseOperator,
                    normalized_adjacency, propagate)
from .influence import SELECTION_MODES, HieSelection, khop_hie_capped, select_hie
from .evaluate import f1_score
from .model import ModelParams, init_model, predict, train
from .unlearn import (FinetuneLog, UnlearnRequest, apply_removal, finetune,
                      prepare_partition, transform_request)


# Largest value of an int field.  Sizes and counts beyond it would ask
# numpy for arrays no machine holds, or overflow its index type.
INT_LIMIT = 2 ** 31 - 1


def _fits(kind: str, value) -> bool:
    """Whether a config value fits a RunConfig field annotated `kind`.

    float fields and the entries of list fields must be finite numbers:
    JSON parsing accepts NaN and Infinity.
    """
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and all(_fits("float", v) for v in value)
    types = {"str": str, "int": int, "float": (int, float)}[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        return False
    try:
        return kind != "float" or math.isfinite(value)
    except OverflowError:       # an int too large to be a float
        return False


@dataclass
class RunConfig:
    """Flat run configuration; JSON files use dotted keys per field.

    A JSON config is one object whose keys are "<section>.<name>", e.g.
    {"propagation.k": 4, "model.hidden": 32, "nim.theta": 0.6}.
    Every construction, dataclasses.replace included, runs validate.
    """

    # paths
    edges: str = ""
    features: str = ""
    labels: str = ""
    train_mask: str = ""
    test_mask: str = ""
    request: str = ""
    # datagen
    gen_n: int = 400
    gen_classes: int = 4
    gen_p_in: float = 0.05
    gen_p_out: float = 0.005
    gen_features: int = 16
    gen_separation: float = 2.0
    gen_train_fraction: float = 0.8
    gen_ue_fraction: float = 0.1
    # propagation
    scheme: str = "s2gc"
    k: int = 3
    r: float = 0.5
    beta: float = 0.5
    # model / training
    mode: str = "mlp"       # the only head; the key stays for configs that name it
    hidden: int = 64
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    # hie selection
    theta: float = 0.5
    budget_multiplier: float = 3.0
    selection_mode: str = "expanding"
    method: str = "influence"
    khop: int = 2
    # fine-tuning
    lam: float = 0.5
    finetune_lr: float = 0.01
    finetune_epochs: int = 50
    tau: float = 0.5
    positives: int = 5
    negatives: int = 5
    l2_coef: float = 5e-4
    # evaluation
    attack: str = "mia"
    rho: tuple = (0.2,)
    # global
    seed: int = 0

    _KEYMAP = {
        "paths.edges": "edges", "paths.features": "features",
        "paths.labels": "labels", "paths.train_mask": "train_mask",
        "paths.test_mask": "test_mask", "paths.request": "request",
        "datagen.n": "gen_n", "datagen.classes": "gen_classes",
        "datagen.p_in": "gen_p_in", "datagen.p_out": "gen_p_out",
        "datagen.features": "gen_features", "datagen.separation": "gen_separation",
        "datagen.train_fraction": "gen_train_fraction",
        "datagen.ue_fraction": "gen_ue_fraction",
        "propagation.scheme": "scheme", "propagation.k": "k",
        "propagation.r": "r", "propagation.beta": "beta",
        "model.mode": "mode", "model.hidden": "hidden",
        "train.lr": "lr", "train.weight_decay": "weight_decay",
        "train.epochs": "epochs",
        "nim.theta": "theta",
        "nim.budget_multiplier": "budget_multiplier",
        "nim.mode": "selection_mode", "nim.method": "method",
        "nim.khop": "khop",
        "unlearn.lambda": "lam", "unlearn.lr": "finetune_lr",
        "unlearn.epochs": "finetune_epochs", "unlearn.tau": "tau",
        "unlearn.positives": "positives", "unlearn.negatives": "negatives",
        "unlearn.l2_coef": "l2_coef",
        "eval.attack": "attack", "eval.rho": "rho",
        "seed": "seed",
    }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Config from dotted keys; validate checks each value's type."""
        kwargs = {}
        for key, value in doc.items():
            if key not in cls._KEYMAP:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[cls._KEYMAP[key]] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        reverse = {v: k for k, v in self._KEYMAP.items()}
        out = {}
        for f in dc_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = list(val)
            out[reverse[f.name]] = val
        return out

    def __post_init__(self):
        self.validate()
        self.rho = tuple(float(v) for v in self.rho)

    def validate(self) -> None:
        """Raise ConfigError naming the first dotted key whose value has the
        wrong type or lies out of range.

        int fields take integers (not booleans) up to INT_LIMIT, float
        fields any finite number, and list fields (eval.rho) lists of
        finite numbers.
        """
        keys = {name: key for key, name in self._KEYMAP.items()}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if not _fits(f.type, value):
                expected = {"str": "a string", "int": "an int", "float": "a finite number",
                            "tuple": "a list of finite numbers"}[f.type]
                raise ConfigError(f"{keys[f.name]} must be {expected}, got {value!r}")
            if f.type == "int" and value > INT_LIMIT:
                raise ConfigError(f"{keys[f.name]} must be at most {INT_LIMIT}, got {value}")
        if self.scheme not in ("sgc", "s2gc", "gbp"):
            raise ConfigError("propagation.scheme must be 'sgc', 's2gc' or 'gbp', "
                              f"got {self.scheme!r}")
        if not 0.0 <= self.r <= 1.0:
            raise ConfigError(f"propagation.r must lie in [0, 1], got {self.r}")
        if self.scheme == "gbp" and not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"propagation.beta must lie in (0, 1] under gbp, got {self.beta}")
        if not 0.0 < self.gen_ue_fraction <= 1.0:
            raise ConfigError("datagen.ue_fraction must lie in (0, 1], "
                              f"got {self.gen_ue_fraction}")
        if self.mode != "mlp":
            raise ConfigError(f"model.mode must be 'mlp', got {self.mode!r}")
        if self.hidden < 1:
            raise ConfigError(f"model.hidden must be at least 1, got {self.hidden}")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(f"nim.mode must be one of {SELECTION_MODES}, "
                              f"got {self.selection_mode!r}")
        if self.method not in ("influence", "khop"):
            raise ConfigError(f"nim.method must be 'influence' or 'khop', got {self.method!r}")
        for key, value in (("propagation.k", self.k), ("train.lr", self.lr),
                           ("train.weight_decay", self.weight_decay),
                           ("train.epochs", self.epochs), ("unlearn.lr", self.finetune_lr),
                           ("unlearn.epochs", self.finetune_epochs),
                           ("unlearn.positives", self.positives),
                           ("unlearn.negatives", self.negatives),
                           ("unlearn.l2_coef", self.l2_coef), ("nim.theta", self.theta),
                           ("nim.budget_multiplier", self.budget_multiplier),
                           ("nim.khop", self.khop)):
            if value < 0:
                raise ConfigError(f"{key} must be nonnegative, got {value}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"unlearn.lambda must lie in [0, 1], got {self.lam}")
        if self.tau <= 0.0:
            raise ConfigError(f"unlearn.tau must be positive, got {self.tau}")
        if self.attack not in ("mia", "edge"):
            raise ConfigError(f"eval.attack must be 'mia' or 'edge', got {self.attack!r}")
        if not self.rho:
            raise ConfigError("eval.rho must hold at least one entry")
        for rho in self.rho:
            if not 0.0 < rho <= 1.0:
                raise ConfigError(f"eval.rho entries must lie in (0, 1], got {rho}")

    def propagation_config(self) -> PropagationConfig:
        """The weights of this scheme; validate has rejected any other scheme."""
        if self.scheme == "sgc":
            return PropagationConfig.sgc(self.k)
        if self.scheme == "s2gc":
            return PropagationConfig.s2gc(self.k)
        return PropagationConfig.gbp(self.k, self.beta)

    def budget_for(self, num_ue: int) -> int:
        return int(round(self.budget_multiplier * num_ue))


@dataclass
class PipelineState:
    """A graph with its operator, propagated features, trained head, and
    the head's predictions soft, which must be finite (else DataError)."""

    graph: Graph
    op: SparseOperator
    x_tilde: np.ndarray
    params: ModelParams
    history: list = field(default_factory=list)
    soft: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(all="ignore"):
            self.soft = predict(self.params, self.x_tilde)
        if not np.isfinite(self.soft).all():
            raise DataError("predictions are not finite: the parameters overflow or hold NaN")


@dataclass
class UnlearnOutcome:
    """Everything one unlearning run produces."""

    state: PipelineState
    ue: np.ndarray
    selection: HieSelection
    log: FinetuneLog

    @property
    def hie(self) -> np.ndarray:
        """The selected nodes in ascending id order."""
        return np.sort(self.selection.nodes)


def propagate_graph(graph: Graph, cfg: RunConfig):
    """Operator plus propagated features for a graph under this config."""
    op = normalized_adjacency(graph, cfg.r)
    return op, propagate(op, graph.features, cfg.propagation_config())


def loaded_state(graph: Graph, cfg: RunConfig, params: ModelParams) -> PipelineState:
    """State around an existing checkpoint; no training happens."""
    op, x_tilde = propagate_graph(graph, cfg)
    return PipelineState(graph=graph, op=op, x_tilde=x_tilde, params=params)


def train_state(graph: Graph, cfg: RunConfig, seed: int) -> PipelineState:
    """Propagate once, then fit the head on the training nodes."""
    op, x_tilde = propagate_graph(graph, cfg)
    fresh = init_model(graph.num_features, cfg.hidden, graph.num_classes, seed=seed)
    params, history = train(fresh, x_tilde, graph.labels, graph.train_mask,
                            lr=cfg.lr, weight_decay=cfg.weight_decay, epochs=cfg.epochs)
    return PipelineState(graph=graph, op=op, x_tilde=x_tilde, params=params,
                         history=history)


def unlearn_state(state: PipelineState, request: UnlearnRequest,
                  cfg: RunConfig, seed: int) -> UnlearnOutcome:
    """Run removal, selection and fine-tuning on a trained state.

    Selection reads only the pre-removal state, so removing first (which
    checks the request) changes nothing but which error a bad request
    meets.
    """
    graph_after = apply_removal(state.graph, request)
    ue = transform_request(request)
    budget = cfg.budget_for(ue.size)
    if cfg.method == "khop":
        selection = khop_hie_capped(state.graph, ue, cfg.khop, budget)
    else:
        selection = select_hie(state.op, cfg.propagation_config(), ue, state.soft,
                               theta=cfg.theta, budget=budget, mode=cfg.selection_mode)

    op_after, x_after = propagate_graph(graph_after, cfg)
    partition = prepare_partition(
        graph_after, x_after, ue, selection.nodes, state.soft, state.params,
        x_before=state.x_tilde, positives_per_anchor=cfg.positives,
        negatives_per_anchor=cfg.negatives, seed=seed)
    params, log = finetune(state.params, partition, lr=cfg.finetune_lr,
                           epochs=cfg.finetune_epochs, lam=cfg.lam, tau=cfg.tau,
                           l2_coef=cfg.l2_coef)

    new_state = PipelineState(graph=graph_after, op=op_after, x_tilde=x_after, params=params)
    return UnlearnOutcome(state=new_state, ue=ue, selection=selection, log=log)


def retrain_state(graph: Graph, request: UnlearnRequest, cfg: RunConfig,
                  seed: int) -> PipelineState:
    """The from-scratch oracle: remove, then train a fresh model."""
    graph_after = apply_removal(graph, request)
    return train_state(graph_after, cfg, seed)


def test_f1(state: PipelineState) -> float:
    pred = np.argmax(state.soft, axis=1)
    return f1_score(pred, state.graph.labels, state.graph.test_mask)


class Pipeline:
    """Callable bundle handed to edge_attack_run."""

    def __init__(self, cfg: RunConfig, seed: int):
        self.cfg = cfg
        self.seed = seed

    def train(self, graph: Graph) -> PipelineState:
        return train_state(graph, self.cfg, self.seed)

    def unlearn(self, state: PipelineState, request: UnlearnRequest) -> PipelineState:
        return unlearn_state(state, request, self.cfg, self.seed).state

    def test_f1(self, state: PipelineState) -> float:
        return test_f1(state)
