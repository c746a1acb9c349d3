"""End-to-end run on generated data with a known bias mechanism.

The generator plants a hidden binary group that shifts the label rate and
leaks into two observable proxy columns.  Training never sees the group; it
only regularizes the proxies.  We compare a plain run against the
regularized one, and optionally add a third column that echoes the label
(high corr with y, low with the group) to watch the weight solver learn to
leave it alone.
"""

import argparse
import dataclasses

from relfair import (
    SyntheticSpec,
    TrainConfig,
    format_comparison_table,
    generate,
    related_features,
    run_seeds,
)

CFG = TrainConfig(
    eta=0.3,
    beta=0.5,
    learning_rate=0.01,
    pretrain_epochs=5,
    max_epochs=15,
    batch_size=64,
    early_stop_patience=4,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1500)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--eta", type=float, default=CFG.eta)
    ap.add_argument("--echo", action="store_true",
                    help="add a label-echo column and report learned weights")
    args = ap.parse_args()

    spec = SyntheticSpec(n=args.n, label_echo=args.echo, seed=0)
    raw = generate(spec)
    related = related_features(spec)
    cfg = dataclasses.replace(CFG, eta=args.eta)
    print(f"n={args.n}, related features: {related}, eta={args.eta}")

    (van, _), (fair, fair_results) = run_seeds(
        raw, related, [("vanilla", cfg), ("fairrf", cfg)], "lr", args.seeds)
    print()
    print(format_comparison_table({"vanilla": van, "fairrf": fair}))

    print()
    print(f"demographic-parity gap shrank by "
          f"{1.0 - fair.delta_dp / van.delta_dp:.0%} for "
          f"{(van.accuracy - fair.accuracy) * 100:.1f} accuracy points.")

    if args.echo:
        print()
        print("final per-feature weights (the echo column tracks the label,"
              " not the group, so it should lose):")
        for seed, result in zip(args.seeds, fair_results):
            lam = dict(zip(result.related.features, result.trace.final_lambda))
            pretty = ", ".join(f"{k}={v:.2f}" for k, v in lam.items())
            print(f"  seed {seed}: {pretty}")


if __name__ == "__main__":
    main()
