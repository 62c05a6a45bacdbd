"""Experiment E6 — Figure 4: variational continual learning vs. maximum likelihood.

Reproduces the Split-MNIST / Split-CIFAR comparison: a sequence of binary
classification tasks is learned one after the other; after each task the mean
accuracy over all tasks seen so far is recorded.  The ML baseline fine-tunes
the same network sequentially and forgets earlier tasks; VCL updates the BNN
prior to the previous posterior after each task (Listing 6) and retains them.

The networks follow Appendix A.4 at reduced scale: a single-hidden-layer MLP
with one output head per task for the MNIST-style suite, and a small
conv-conv-pool network for the CIFAR-style suite.

Registered as ``fig4-vcl``; run it with ``repro run fig4-vcl [--fast]``
(both suites — the full figure) or ``--set suite=mnist`` for one suite.
Per-task accuracies are evaluated through one batched forward over the
stacked task test sets, RNG-identical to one ``predict`` per task.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import core as tyxe
from .. import metrics, nn, ppl
from ..core.vcl import VCLState, update_prior_to_posterior
from ..datasets.continual import ContinualTask, make_split_cifar_like, make_split_mnist_like
from ..nn import functional as F
from ..ppl import distributions as dist
from .api import BaseExperimentConfig, register

__all__ = ["ContinualConfig", "ContinualResult", "MultiHeadNet"]


@dataclass
class ContinualConfig(BaseExperimentConfig):
    """Sizes and hyper-parameters of the continual-learning experiment."""

    suite: str = "mnist"  # "mnist" or "cifar" ("both" is valid for fig4-vcl only)
    num_tasks: int = 5
    image_size: int = 8
    train_per_class: int = 30
    test_per_class: int = 20
    hidden: int = 32
    epochs_per_task: int = 100
    learning_rate: float = 3e-3
    init_scale: float = 1e-2
    num_predictions: int = 8
    batch_size: int = 60
    single_head: bool = True

    @classmethod
    def fast(cls, suite: str = "mnist") -> "ContinualConfig":
        num_tasks = 3 if suite == "mnist" else 2
        return cls(suite=suite, num_tasks=num_tasks, train_per_class=12, test_per_class=8,
                   hidden=24, epochs_per_task=10, num_predictions=4, fast=True)


@dataclass
class ContinualResult:
    """Mean-accuracy-over-seen-tasks curve (one line of Figure 4)."""

    method: str
    suite: str
    mean_accuracies: List[float]
    accuracy_matrix: np.ndarray
    forgetting: float
    extra: Dict = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return {"method": self.method, "suite": self.suite,
                "mean_accuracies": self.mean_accuracies, "forgetting": self.forgetting}


class MultiHeadNet(nn.Module):
    """Shared body with one output head per task (the multi-head Split protocol).

    ``set_active_task`` selects which head the forward pass uses; all heads'
    parameters exist from the start so the Bayesian treatment covers them.
    """

    def __init__(self, body: nn.Module, body_out: int, num_tasks: int, classes_per_task: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.body = body
        self.heads = nn.ModuleList([nn.Linear(body_out, classes_per_task, rng=rng)
                                    for _ in range(num_tasks)])
        self.active_task = 0
        object.__setattr__(self, "task_schedule", None)

    def set_active_task(self, task_id: int) -> None:
        # with a single shared head (domain-incremental protocol) every task
        # maps to head 0; otherwise each task has its own head
        object.__setattr__(self, "active_task", task_id if task_id < len(self.heads) else 0)

    def set_task_schedule(self, head_ids: Optional[Sequence[int]]) -> None:
        """Route each leading-sample slice of a batched forward to its own head.

        ``head_ids[s]`` names the head the ``s``-th slice of a stacked
        ``(S, N, ...)`` forward pass goes through — the head-indexed batched
        forward that lets multi-head (``single_head=False``) evaluation share
        one body pass across tasks.  Evaluation-only: the selected logits are
        detached, so use it under ``nn.no_grad()``.  ``None`` restores normal
        single-active-head routing.
        """
        schedule = None if head_ids is None else np.asarray(head_ids, dtype=int)
        if schedule is not None and schedule.ndim != 1:
            raise ValueError("task schedule must be a 1-D sequence of head indices")
        object.__setattr__(self, "task_schedule", schedule)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        features = self.body(x)
        schedule = self.task_schedule
        if schedule is None:
            return self.heads[self.active_task](features)
        if features.shape[0] != len(schedule):
            raise ValueError(
                f"task schedule covers {len(schedule)} leading-sample slices but the "
                f"batched forward carries {features.shape[0]}")
        # one body pass feeds every head; each head is a single (cheap) linear
        # layer, so computing all H head outputs and gathering slice s from
        # head schedule[s] stays far cheaper than per-task body forwards
        head_outputs = [self.heads[h](features).data for h in range(len(self.heads))]
        selected = np.stack([head_outputs[schedule[s]][s] for s in range(len(schedule))])
        return nn.Tensor(selected)


def _make_tasks(config: ContinualConfig) -> List[ContinualTask]:
    if config.suite == "mnist":
        return make_split_mnist_like(num_tasks=config.num_tasks, image_size=config.image_size,
                                     train_per_class=config.train_per_class,
                                     test_per_class=config.test_per_class, seed=config.seed)
    if config.suite == "cifar":
        return make_split_cifar_like(num_tasks=config.num_tasks, image_size=config.image_size,
                                     train_per_class=config.train_per_class,
                                     test_per_class=config.test_per_class, seed=config.seed)
    raise ValueError(f"unknown suite {config.suite!r}; use 'mnist' or 'cifar'")


def _make_net(config: ContinualConfig, rng: np.random.Generator) -> MultiHeadNet:
    num_heads = 1 if config.single_head else config.num_tasks
    if config.suite == "mnist":
        in_features = config.image_size ** 2
        body = nn.Sequential(nn.Linear(in_features, config.hidden, rng=rng), nn.ReLU())
        return MultiHeadNet(body, config.hidden, num_heads, 2, rng=rng)
    channels = (8, 16)
    final_size = config.image_size // 4
    flat = channels[1] * final_size * final_size
    body = nn.Sequential(
        nn.models.ConvBlock(3, channels[0], rng=rng),
        nn.models.ConvBlock(channels[0], channels[1], rng=rng),
        nn.Flatten(),
        nn.Linear(flat, config.hidden, rng=rng),
        nn.ReLU(),
    )
    return MultiHeadNet(body, config.hidden, num_heads, 2, rng=rng)


def _evaluate_task_accuracies(bnn: tyxe.VariationalBNN, net: MultiHeadNet,
                              tasks: Sequence[ContinualTask],
                              num_predictions: int) -> List[float]:
    """Accuracy on every task's test set (the per-step column of Figure 4).

    Stacks all task test sets and runs ONE batched forward over the
    ``tasks x num_predictions`` leading sample axis via
    :meth:`~repro.core.bnn._SupervisedBNN.predict_grouped`; weight draws are
    consumed task-major, so the accuracies are RNG-identical to one
    ``predict`` per task.  Multi-head networks (``single_head=False``) share
    the same batched body forward through
    :meth:`MultiHeadNet.set_task_schedule`, which routes each task's sample
    slices through its own head.  Tasks with mismatched test-set shapes fall
    back to one ``predict`` per task, likewise RNG-identical.
    """
    shapes = {t.test_inputs.shape for t in tasks}
    if len(shapes) == 1:
        stacked = np.stack([t.test_inputs for t in tasks])  # (T, n, ...)
        if len(net.heads) == 1:
            net.set_active_task(tasks[0].task_id)
            agg = bnn.predict_grouped(stacked, num_predictions=num_predictions)
        else:
            head_ids = [t.task_id if t.task_id < len(net.heads) else 0 for t in tasks]
            net.set_task_schedule(np.repeat(head_ids, num_predictions))
            try:
                agg = bnn.predict_grouped(stacked, num_predictions=num_predictions)
            finally:
                net.set_task_schedule(None)
        return [metrics.accuracy(metrics.as_probs(agg[i], from_logits=True), t.test_labels)
                for i, t in enumerate(tasks)]
    accuracies = []
    for task in tasks:
        net.set_active_task(task.task_id)
        agg = bnn.predict(nn.Tensor(task.test_inputs), num_predictions=num_predictions,
                          aggregate=True)
        accuracies.append(metrics.accuracy(metrics.as_probs(agg, from_logits=True),
                                           task.test_labels))
    return accuracies


def _task_accuracy_ml(net: MultiHeadNet, task: ContinualTask) -> float:
    net.set_active_task(task.task_id)
    with nn.no_grad():
        logits = net(nn.Tensor(task.test_inputs))
    return metrics.accuracy(metrics.as_probs(logits, from_logits=True), task.test_labels)


def _vcl(config: ContinualConfig) -> ContinualResult:
    """Variational continual learning: prior <- posterior between tasks."""
    rng = config.seed_all()
    tasks = _make_tasks(config)
    net = _make_net(config, rng)

    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide = partial(tyxe.guides.AutoNormal, init_scale=config.init_scale,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net))
    state = VCLState(len(tasks))

    bnn: Optional[tyxe.VariationalBNN] = None
    for task in tasks:
        net.set_active_task(task.task_id)
        likelihood = tyxe.likelihoods.Categorical(dataset_size=len(task.train_inputs))
        if bnn is None:
            bnn = tyxe.VariationalBNN(net, prior, likelihood, guide)
        else:
            bnn.likelihood = likelihood
        loader = nn.DataLoader(nn.TensorDataset(task.train_inputs, task.train_labels),
                               batch_size=config.batch_size, shuffle=True,
                               rng=np.random.default_rng(config.seed + task.task_id))
        optim = ppl.optim.Adam({"lr": config.learning_rate})
        with tyxe.poutine.local_reparameterization():
            bnn.fit(loader, optim, config.epochs_per_task)
        # record accuracy on all tasks seen so far
        accuracies = _evaluate_task_accuracies(bnn, net, tasks[: task.task_id + 1],
                                               config.num_predictions)
        state.record(task.task_id, accuracies)
        # posterior becomes the prior of the next task (Listing 6)
        update_prior_to_posterior(bnn)
    return ContinualResult(method="vcl", suite=config.suite,
                           mean_accuracies=state.mean_accuracies(),
                           accuracy_matrix=state.accuracy_matrix,
                           forgetting=state.forgetting())


def _ml_baseline(config: ContinualConfig) -> ContinualResult:
    """Sequential maximum-likelihood fine-tuning (the forgetting baseline)."""
    rng = config.seed_all()
    tasks = _make_tasks(config)
    net = _make_net(config, rng)
    state = VCLState(len(tasks))
    optim = nn.Adam(net.parameters(), lr=config.learning_rate)

    for task in tasks:
        net.set_active_task(task.task_id)
        loader = nn.DataLoader(nn.TensorDataset(task.train_inputs, task.train_labels),
                               batch_size=config.batch_size, shuffle=True,
                               rng=np.random.default_rng(config.seed + task.task_id))
        for _ in range(config.epochs_per_task):
            for x, y in loader:
                optim.zero_grad()
                loss = F.cross_entropy(net(x), y.data.astype(np.int64))
                loss.backward()
                optim.step()
        accuracies = [_task_accuracy_ml(net, t) for t in tasks[: task.task_id + 1]]
        state.record(task.task_id, accuracies)
    return ContinualResult(method="ml", suite=config.suite,
                           mean_accuracies=state.mean_accuracies(),
                           accuracy_matrix=state.accuracy_matrix,
                           forgetting=state.forgetting())


def _validation_targets(config: ContinualConfig):
    """The first-task VCL model/guide pair for ``repro check-model``."""
    from ..analysis import ValidationTarget

    if config.suite not in ("mnist", "cifar"):  # "both" has no single network
        config = dataclasses.replace(config, suite="mnist")
    rng = np.random.default_rng(config.seed)
    net = _make_net(config, rng)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide = partial(tyxe.guides.AutoNormal, init_scale=config.init_scale,
                    init_loc_fn=tyxe.guides.PretrainedInitializer.from_net(net))
    bnn = tyxe.VariationalBNN(net, prior, tyxe.likelihoods.Categorical(dataset_size=4),
                              guide)
    if config.suite == "mnist":
        x = np.zeros((4, config.image_size ** 2))
    else:
        x = np.zeros((4, 3, config.image_size, config.image_size))
    return [ValidationTarget("vcl-task0", bnn.model, bnn.guide,
                             args=(nn.Tensor(x), nn.Tensor(np.zeros(4))))]


@register("fig4-vcl", config_cls=ContinualConfig, number="E6", artefact="Figure 4",
          title="Variational continual learning vs. sequential maximum likelihood",
          base_overrides={"suite": "both"},
          validation_targets=_validation_targets)
def _figure4_experiment(config: ContinualConfig):
    """Both methods on the configured suite(s).

    The registry default is ``suite="both"`` — the full four-curve figure,
    with the CIFAR-style suite running one more task than the MNIST-style
    suite (the paper's 5/6 split; one task fewer at ``fast`` scale) — while
    ``--set suite=mnist`` (or ``cifar``) reproduces a single suite's pair of
    curves.
    """
    suites = ("mnist", "cifar") if config.suite == "both" else (config.suite,)
    results: Dict[str, Dict[str, ContinualResult]] = {}
    for suite in suites:
        suite_config = dataclasses.replace(config, suite=suite)
        if config.suite == "both" and suite == "cifar":
            # full scale mirrors the paper's 5/6 split; fast mirrors
            # ContinualConfig.fast("cifar"), which runs one task fewer than
            # the MNIST-style smoke suite
            cifar_tasks = max(config.num_tasks - 1, 2) if config.fast else config.num_tasks + 1
            suite_config = dataclasses.replace(suite_config, num_tasks=cifar_tasks)
        results[suite] = {"ml": _ml_baseline(suite_config), "vcl": _vcl(suite_config)}
    metrics_out: Dict[str, object] = {}
    for suite, pair in results.items():
        for method, result in pair.items():
            prefix = f"{suite}_{method}"
            metrics_out[f"{prefix}_final_mean_accuracy"] = result.mean_accuracies[-1]
            metrics_out[f"{prefix}_forgetting"] = result.forgetting
            metrics_out[f"{prefix}_mean_accuracies"] = [float(a)
                                                        for a in result.mean_accuracies]
    return metrics_out, results
