"""Quickstart: Bayesian nonlinear regression in five lines (paper Listings 1-2).

Builds the two-cluster synthetic regression problem from the paper, turns a
plain two-layer ``repro.nn`` network into a variational BNN, fits it under
local reparameterization and prints the predictive uncertainty on a grid —
small on the data clusters, larger in the gap between them.

``predict`` draws all 32 posterior weight samples up front and pushes them
through batched forward passes (leading-sample-dimension execution) instead
of 32 traced passes — several times faster and numerically identical to the
loop under the same seed (see ``benchmarks/test_perf_vectorized_predict.py``).

Run with::

    python examples/quickstart.py

(The full Figure-1 experiment this snippet condenses is registered as
``fig1-regression`` — reproduce it with ``repro run fig1-regression``.)
"""

from functools import partial

import numpy as np

from repro import nn, ppl
import repro.core as tyxe
from repro.datasets import foong_regression, regression_grid, true_function
from repro.ppl import distributions as dist


def main(seed: int = 42) -> None:
    ppl.set_rng_seed(seed)
    ppl.clear_param_store()
    rng = np.random.default_rng(seed)

    x, y = foong_regression(n_per_cluster=40, noise_scale=0.1, seed=seed)
    dataset_size = len(x)

    # ----- the paper's Listing 1: five lines from a Pytorch-style net to a BNN
    net = nn.Sequential(nn.Linear(1, 50, rng=rng), nn.Tanh(), nn.Linear(50, 1, rng=rng))
    likelihood = tyxe.likelihoods.HomoskedasticGaussian(dataset_size, scale=0.1)
    prior = tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0))
    guide_factory = partial(tyxe.guides.AutoNormal, init_scale=0.05,
                            init_loc_fn=tyxe.guides.init_to_normal("radford"))
    bnn = tyxe.VariationalBNN(net, prior, likelihood, guide_factory)

    # ----- the paper's Listing 2: fit under local reparameterization, then predict
    loader = nn.DataLoader(nn.TensorDataset(x, y), batch_size=40, shuffle=True, rng=rng)
    optim = ppl.optim.Adam({"lr": 1e-2})
    print("Fitting the variational BNN (this takes a few seconds)...")
    with tyxe.poutine.local_reparameterization():
        bnn.fit(loader, optim, num_epochs=400,
                callback=lambda b, e, l: print(f"  epoch {e:4d}  elbo-loss {l:9.2f}")
                if e % 100 == 0 else False)

    x_grid = regression_grid()
    # the 32 weight samples run through batched forwards over a sample axis
    predictions = bnn.predict(x_grid, num_predictions=32, aggregate=False)
    mean = predictions.data.mean(axis=0).squeeze()
    std = bnn.likelihood.predictive_stddev(predictions).squeeze()

    log_lik, squared_error = bnn.evaluate(x, y, num_predictions=32)
    print(f"\ntrain log likelihood {log_lik:.3f}   train squared error {squared_error:.4f}\n")
    print("      x    true f(x)   pred mean   pred std")
    for i in range(0, len(x_grid), 10):
        xi = x_grid[i, 0]
        print(f"  {xi:+.2f}   {true_function(np.array(xi)): .3f}       "
              f"{mean[i]: .3f}      {std[i]:.3f}")

    grid = x_grid.squeeze()
    gap = std[(grid > -0.5) & (grid < 0.3)].mean()
    on_data = std[((grid >= -1.0) & (grid <= -0.7)) | ((grid >= 0.5) & (grid <= 1.0))].mean()
    print(f"\nmean predictive std on the data clusters: {on_data:.3f}")
    print(f"mean predictive std in the gap between them: {gap:.3f}  (should be larger)")


if __name__ == "__main__":
    main()
