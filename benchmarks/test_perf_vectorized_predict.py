"""Perf benchmark for the vectorized posterior-predictive engine.

Times ``VariationalBNN.predict`` on the paper's MLP regression workload
(Listings 1-2 shape: a 1-50-1 tanh network on a 1-D grid) against the
one-forward-per-draw loop oracle (``tests/loop_oracles.py``) at
``num_predictions=32`` and asserts

* ``predict`` is at least 3x faster than the loop oracle, and
* both produce identical stacked predictions under the same RNG seed.

The measured timings are written to ``artifacts/BENCH_predict.json``.
"""

import sys
from functools import partial
from pathlib import Path

import numpy as np
from _harness import best_of as _best_of
from _harness import record, record_bench, run_once

from repro import nn, ppl
import repro.core as tyxe
from repro.ppl import distributions as dist

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from loop_oracles import looped_predict  # noqa: E402

NUM_PREDICTIONS = 32
MIN_SPEEDUP = 3.0


def _make_bnn(rng, x):
    net = nn.Sequential(nn.Linear(1, 50, rng=rng), nn.Tanh(), nn.Linear(50, 1, rng=rng))
    return tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                               tyxe.likelihoods.HomoskedasticGaussian(len(x), 0.1),
                               partial(tyxe.guides.AutoNormal, init_scale=0.05,
                                       init_loc_fn=tyxe.guides.init_to_normal("radford")))


def test_vectorized_predict_speedup(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    x = np.linspace(-2.0, 2.0, 100).reshape(-1, 1)
    bnn = _make_bnn(rng, x)
    bnn.predict(x, num_predictions=1)  # instantiate guide parameters

    # numerical equivalence under a shared seed
    ppl.set_rng_seed(42)
    looped = looped_predict(bnn, x, num_predictions=NUM_PREDICTIONS, aggregate=False)
    ppl.set_rng_seed(42)
    vectorized = bnn.predict(x, num_predictions=NUM_PREDICTIONS, aggregate=False)
    np.testing.assert_array_equal(vectorized.data, looped.data)
    ppl.set_rng_seed(42)
    agg_looped = looped_predict(bnn, x, num_predictions=NUM_PREDICTIONS)
    ppl.set_rng_seed(42)
    agg_vectorized = bnn.predict(x, num_predictions=NUM_PREDICTIONS)
    np.testing.assert_array_equal(agg_vectorized.data, agg_looped.data)

    # wall-clock comparison (best-of to damp scheduler noise)
    t_looped = _best_of(lambda: looped_predict(bnn, x, num_predictions=NUM_PREDICTIONS,
                                               aggregate=False))
    t_vectorized = _best_of(lambda: bnn.predict(x, num_predictions=NUM_PREDICTIONS,
                                                aggregate=False))
    speedup = t_looped / t_vectorized

    run_once(benchmark, bnn.predict, x, num_predictions=NUM_PREDICTIONS, aggregate=False)
    record(benchmark, looped_ms=t_looped * 1e3, vectorized_ms=t_vectorized * 1e3,
           speedup=speedup, num_predictions=NUM_PREDICTIONS)

    # gate first: the record must only hold gate-passing numbers
    speedup_gate(speedup, MIN_SPEEDUP,
                 detail=f"looped {t_looped * 1e3:.2f}ms, vectorized {t_vectorized * 1e3:.2f}ms")

    record_bench("predict", {
        "workload": "mlp_regression_predict",
        "num_predictions": NUM_PREDICTIONS,
        "grid_points": int(x.shape[0]),
        "looped_seconds": t_looped,
        "vectorized_seconds": t_vectorized,
        "speedup": speedup,
        "speedup_definition": "ratio_of_best_of_times",
        "min_required_speedup": MIN_SPEEDUP,
    })
