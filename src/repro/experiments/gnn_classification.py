"""Experiment E4 — Table 2: Bayesian graph neural networks on a citation graph.

Reproduces the paper's semi-supervised node-classification comparison (ML,
MAP, mean-field VI) with a two-layer GCN on a Cora-style synthetic graph.
The semi-supervised structure is handled exactly as in Listing 4: the full
graph is passed through the network, and the ``selective_mask`` effect
handler restricts the log-likelihood to labelled (training) nodes.  Each
method reports the test NLL, accuracy and ECE at the epoch with the lowest
validation NLL, averaged over several seeds (mean ± two standard errors).

Registered as ``table2-gnn``; run it with
``repro run table2-gnn [--fast] [--set methods=ml,mf]`` or
:func:`repro.experiments.api.run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from .. import core as tyxe
from .. import metrics, nn, ppl
from ..datasets.graphs import CitationGraphData, make_citation_graph
from ..gnn import two_layer_gcn
from ..nn import functional as F
from ..ppl import distributions as dist
from .api import BaseExperimentConfig, parse_name_list, register

__all__ = ["GNNConfig", "GNNMethodResult", "table2_rows"]

GNN_METHODS = ("ml", "map", "mf")


@dataclass
class GNNConfig(BaseExperimentConfig):
    """Sizes and hyper-parameters for the GNN comparison."""

    num_nodes: int = 250
    num_classes: int = 4
    feature_dim: int = 32
    feature_noise: float = 3.0
    hidden: int = 16
    train_per_class: int = 10
    val_per_class: int = 10
    ml_iterations: int = 200
    mf_iterations: int = 600
    ml_learning_rate: float = 1e-2
    mf_learning_rate: float = 2e-2
    init_scale: float = 1e-2
    max_guide_scale: float = 0.1
    num_predictions: int = 8
    num_runs: int = 5
    eval_every: int = 10
    # comma-separated subset of GNN_METHODS; empty = all of them
    methods: str = ""

    @classmethod
    def fast(cls) -> "GNNConfig":
        return cls(num_nodes=80, ml_iterations=30, mf_iterations=40, num_runs=2,
                   num_predictions=4, eval_every=10, fast=True)

    def selected_methods(self) -> Tuple[str, ...]:
        return parse_name_list(self.methods, GNN_METHODS, GNN_METHODS, "methods")


@dataclass
class GNNMethodResult:
    """Mean and two-standard-error statistics over runs (one Table 2 row)."""

    method: str
    nll_mean: float
    nll_two_se: float
    accuracy_mean: float
    accuracy_two_se: float
    ece_mean: float
    ece_two_se: float
    per_run: List[Dict[str, float]] = field(default_factory=list, repr=False)

    def row(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "nll": self.nll_mean, "nll_2se": self.nll_two_se,
            "accuracy": self.accuracy_mean, "accuracy_2se": self.accuracy_two_se,
            "ece": self.ece_mean, "ece_2se": self.ece_two_se,
        }


def _masked_nll(probs: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    return metrics.nll(probs[mask], labels[mask])


def _run_ml(data: CitationGraphData, config: GNNConfig, seed: int, weight_decay: float = 0.0
            ) -> Dict[str, float]:
    """Deterministic training (ML, or MAP when ``weight_decay > 0``) with early stopping."""
    rng = np.random.default_rng(seed)
    net = two_layer_gcn(data.num_features, config.hidden, data.num_classes, rng=rng)
    optim = nn.Adam(net.parameters(), lr=config.ml_learning_rate, weight_decay=weight_decay)
    features = nn.Tensor(data.features)
    train_labels = data.labels[data.train_mask]
    best = {"val_nll": np.inf}
    for iteration in range(config.ml_iterations):
        optim.zero_grad()
        logits = net(data.graph, features)
        loss = F.cross_entropy(logits[data.train_mask], train_labels)
        loss.backward()
        optim.step()
        if iteration % config.eval_every == 0 or iteration == config.ml_iterations - 1:
            with nn.no_grad():
                probs = metrics.as_probs(net(data.graph, features), from_logits=True)
            val_nll = _masked_nll(probs, data.labels, data.val_mask)
            if val_nll < best["val_nll"]:
                best = {
                    "val_nll": val_nll,
                    "nll": _masked_nll(probs, data.labels, data.test_mask),
                    "accuracy": metrics.accuracy(probs[data.test_mask], data.labels[data.test_mask]),
                    "ece": metrics.expected_calibration_error(probs[data.test_mask],
                                                              data.labels[data.test_mask]),
                }
    return best


def _run_mf(data: CitationGraphData, config: GNNConfig, seed: int) -> Dict[str, float]:
    """Mean-field VI with the selective_mask handler over labelled nodes."""
    ppl.set_rng_seed(seed)
    ppl.clear_param_store()
    rng = np.random.default_rng(seed)
    gnn = two_layer_gcn(data.num_features, config.hidden, data.num_classes, rng=rng)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    # the whole graph is passed in one "batch", so dataset_size must equal the
    # number of nodes for the plate scale to be 1; the selective mask then
    # removes the unlabelled nodes' contribution to the log-likelihood
    likelihood = tyxe.likelihoods.Categorical(dataset_size=data.graph.num_nodes)
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(gnn),
                    init_scale=config.init_scale, max_guide_scale=config.max_guide_scale)
    bgnn = tyxe.VariationalBNN(gnn, prior, likelihood, guide)

    features = nn.Tensor(data.features)
    train_data = [((data.graph, features), nn.Tensor(data.labels))]
    optim = ppl.optim.Adam({"lr": config.mf_learning_rate})
    best = {"val_nll": np.inf}
    epochs_per_eval = config.eval_every
    num_evals = max(config.mf_iterations // epochs_per_eval, 1)
    for _ in range(num_evals):
        with tyxe.poutine.selective_mask(mask=data.train_mask.astype(np.float64),
                                         expose=[likelihood.data_site]):
            bgnn.fit(train_data, optim, epochs_per_eval)
        agg = bgnn.predict((data.graph, features), num_predictions=config.num_predictions,
                           aggregate=True)
        probs = metrics.as_probs(agg, from_logits=True)
        val_nll = _masked_nll(probs, data.labels, data.val_mask)
        if val_nll < best["val_nll"]:
            best = {
                "val_nll": val_nll,
                "nll": _masked_nll(probs, data.labels, data.test_mask),
                "accuracy": metrics.accuracy(probs[data.test_mask], data.labels[data.test_mask]),
                "ece": metrics.expected_calibration_error(probs[data.test_mask],
                                                          data.labels[data.test_mask]),
            }
    return best


def _aggregate(method: str, runs: List[Dict[str, float]]) -> GNNMethodResult:
    def _stats(key: str) -> Tuple[float, float]:
        values = np.array([r[key] for r in runs])
        two_se = 2.0 * values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
        return float(values.mean()), float(two_se)

    nll_mean, nll_se = _stats("nll")
    acc_mean, acc_se = _stats("accuracy")
    ece_mean, ece_se = _stats("ece")
    return GNNMethodResult(method, nll_mean, nll_se, acc_mean, acc_se, ece_mean, ece_se, runs)


def _gnn_comparison(config: GNNConfig) -> Dict[str, GNNMethodResult]:
    """Run ML / MAP / mean-field VI over several seeds and aggregate (Table 2)."""
    methods = config.selected_methods()
    config.seed_all()
    results: Dict[str, List[Dict[str, float]]] = {m: [] for m in methods}
    for run in range(config.num_runs):
        seed = config.seed + run
        data = make_citation_graph(num_nodes=config.num_nodes, num_classes=config.num_classes,
                                   feature_dim=config.feature_dim,
                                   feature_noise=config.feature_noise,
                                   train_per_class=config.train_per_class,
                                   val_per_class=config.val_per_class, seed=seed)
        if "ml" in methods:
            results["ml"].append(_run_ml(data, config, seed))
        if "map" in methods:
            results["map"].append(_run_ml(data, config, seed, weight_decay=5e-3))
        if "mf" in methods:
            results["mf"].append(_run_mf(data, config, seed))
    return {m: _aggregate(m, runs) for m, runs in results.items()}


def _validation_targets(config: GNNConfig):
    """An untrained GCN model/guide pair over a tiny graph for ``repro check-model``."""
    from ..analysis import ValidationTarget

    rng = np.random.default_rng(config.seed)
    data = make_citation_graph(num_nodes=24, num_classes=config.num_classes,
                               feature_dim=config.feature_dim, train_per_class=2,
                               val_per_class=2, seed=config.seed)
    gnn = two_layer_gcn(data.num_features, config.hidden, data.num_classes, rng=rng)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    likelihood = tyxe.likelihoods.Categorical(dataset_size=data.graph.num_nodes)
    guide = partial(tyxe.guides.AutoNormal,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(gnn),
                    init_scale=config.init_scale, max_guide_scale=config.max_guide_scale)
    bgnn = tyxe.VariationalBNN(gnn, prior, likelihood, guide)
    features = nn.Tensor(data.features)
    return [ValidationTarget("mean-field", bgnn.model, bgnn.guide,
                             args=((data.graph, features), nn.Tensor(data.labels)))]


@register("table2-gnn", config_cls=GNNConfig, number="E4", artefact="Table 2",
          title="Bayesian GNN node classification: ML vs. MAP vs. mean-field VI",
          validation_targets=_validation_targets)
def _table2_experiment(config: GNNConfig):
    results = _gnn_comparison(config)
    metrics = {f"{row['method']}_{key}": value
               for row in table2_rows(results)
               for key, value in row.items() if key != "method"}
    return metrics, results


def table2_rows(results: Dict[str, GNNMethodResult]) -> List[Dict[str, float]]:
    """Format results as the rows of the paper's Table 2."""
    order = [m for m in GNN_METHODS if m in results]
    return [results[m].row() for m in order]
