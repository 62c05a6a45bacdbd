"""Looped posterior-predictive references for the batched prediction paths.

The library predicts through one batched forward over a leading sample axis
(``predict``, ``evaluate``, ``MCMC_BNN.predict``, NeRF posterior rendering,
continual-learning task evaluation).  Each function here is the
one-forward-per-weight-draw loop that computes the same thing, kept as the
oracle the equivalence suites and the perf benchmarks compare against: under
the same seed, both must give identical bytes and leave the RNG in the same
state.
"""

import numpy as np

from repro import metrics, nn
from repro.core.bnn import _as_tuple
from repro.nn.tensor import Tensor, no_grad


def _as_array(out):
    return out.data if isinstance(out, Tensor) else np.asarray(out)


def looped_predict(bnn, input_data, num_predictions=1, aggregate=True):
    """``_SupervisedBNN.predict`` as one ``guided_forward`` per weight draw."""
    args = _as_tuple(input_data)
    with no_grad():
        stacked = Tensor(np.stack([_as_array(bnn.guided_forward(*args))
                                   for _ in range(num_predictions)]))
    return bnn.likelihood.aggregate_predictions(stacked) if aggregate else stacked


def looped_evaluate(bnn, input_data, targets, num_predictions=1, reduction="mean"):
    """``_SupervisedBNN.evaluate`` over :func:`looped_predict`."""
    aggregated = looped_predict(bnn, input_data, num_predictions, aggregate=True)
    return (bnn.likelihood.log_likelihood(aggregated, targets, reduction=reduction),
            bnn.likelihood.error(aggregated, targets, reduction=reduction))


def looped_mcmc_predict(bnn, input_data, num_predictions=1, aggregate=True):
    """``MCMC_BNN.predict`` as one forward per selected stored sample."""
    total = bnn.num_posterior_samples
    indices = bnn._prediction_indices(total, min(num_predictions, total))
    args = _as_tuple(input_data)
    with no_grad():
        stacked = Tensor(np.stack([_as_array(bnn.guided_forward(*args, sample_index=int(i)))
                                   for i in indices]))
    return bnn.likelihood.aggregate_predictions(stacked) if aggregate else stacked


def looped_posterior_views(renderer, bnn, angles, num_samples):
    """NeRF posterior mean/std images, one render per angle and weight draw."""
    means, stds = [], []
    with no_grad():
        for angle in angles:
            stacked = np.stack([renderer(float(angle), bnn)[0].data.copy()
                                for _ in range(num_samples)])
            means.append(stacked.mean(axis=0))
            stds.append(stacked.std(axis=0))
    return {"mean": means, "std": stds}


def looped_task_accuracies(bnn, net, tasks, num_predictions):
    """Continual-learning task accuracies, one looped predict per task."""
    accuracies = []
    for task in tasks:
        net.set_active_task(task.task_id)
        agg = looped_predict(bnn, nn.Tensor(task.test_inputs), num_predictions)
        accuracies.append(metrics.accuracy(metrics.as_probs(agg, from_logits=True),
                                           task.test_labels))
    return accuracies
