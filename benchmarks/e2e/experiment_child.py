"""One repetition of a registered paper experiment, in this fresh process.

Spawned by ``run.py``; writes one JSON result to ``--out``:

* ``t_start``/``t_ready`` -- monotonic clock at interpreter start (first line
  of this script) and once the experiment registry has resolved the id;
* ``metrics`` -- the experiment's flat metric dict, compared bit for bit
  across repetitions and between traced and untraced runs;
* ``claims`` -- the paper's qualitative claims (``benchmarks/test_fig*.py``);
* ``wall_s``, ``peak_rss_mb`` and, with ``--trace``, the span totals.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def _fig1_claims(metrics, raw):
    claims = {}
    for panel in ("local_reparameterization", "shared_weight_samples", "hmc"):
        factor = 1.2 if panel == "hmc" else 1.0
        claims[f"{panel}_fits"] = metrics[f"{panel}_train_squared_error"] < 0.05
        claims[f"{panel}_wider_between_clusters"] = (
            metrics[f"{panel}_in_between_std"] > factor * metrics[f"{panel}_on_data_std"])
    return claims


def _fig2_claims(metrics, raw):
    claims = {"mf_better_calibrated":
              metrics["mf_calibration_gap"] < metrics["ml_calibration_gap"]}
    for method in ("ml", "mf"):
        cdf = raw["curves"][method]["test_entropy_cdf"]
        claims[f"{method}_entropy_cdf_valid"] = bool(
            np.all(np.diff(cdf) >= -1e-12) and cdf[-1] == 1.0)
        claims[f"{method}_ood_entropy_higher"] = (
            metrics[f"{method}_mean_ood_entropy"] > metrics[f"{method}_mean_test_entropy"])
    return claims


def _fig3_claims(metrics, raw):
    return {
        "bayesian_generalizes_better":
            metrics["bayesian_heldout_error"] < metrics["deterministic_heldout_error"],
        "uncertainty_higher_heldout":
            metrics["heldout_uncertainty"] > metrics["train_uncertainty"],
        "deterministic_fits": metrics["deterministic_train_error"] < 0.02,
        "bayesian_fits": metrics["bayesian_train_error"] < 0.02,
    }


CLAIMS = {"fig1-regression": _fig1_claims, "fig2-calibration": _fig2_claims,
          "fig3-nerf": _fig3_claims}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment_id")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="config seed; 0 keeps the paper-default seed")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the registry has resolved the id")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="wrap the layers and write a Chrome trace to PATH")
    args = parser.parse_args(argv)

    from repro.experiments.api import get_experiment

    spec = get_experiment(args.experiment_id)
    record = {"t_start": T_START, "t_ready": time.monotonic()}
    if not args.setup_only:
        from repro.nn import lazy

        config = spec.make_config(overrides={"seed": args.seed} if args.seed else None)
        run = spec.run
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = tracer.span("experiment", run)
        lazy.reset_stats()
        start = time.perf_counter()
        result = run(config)
        record["wall_s"] = time.perf_counter() - start
        record["metrics"] = result.metrics
        record["claims"] = CLAIMS[args.experiment_id](result.metrics, result.raw)
        record["lazy"] = lazy.graph_stats()
        if tracer is not None:
            record["spans"] = tracer.totals()
            tracer.write_chrome_trace(args.trace, {"workload": args.experiment_id,
                                                   "seed": args.seed})
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
