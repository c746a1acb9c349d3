"""Drive the CLI on the census income benchmark.

Needs the merged, headered adult.csv (UCI train+test halves, trailing
periods stripped from the test labels, one header row).  Point
RELFAIR_DATA_DIR at the directory that holds it, or pass --data-dir.
tests/conftest.py stages exactly this file when the archive is reachable,
so after a successful test run the default cache already has it.

Runs `train` for the regularized variant into `<output-dir>/train`, then
`compare` against the usual baselines into `<output-dir>/comparison`, and
prints where the artifacts landed.  The two runs sit side by side, so each
directory holds exactly the files its manifest.json lists, and a rerun
replaces each run as a whole.  Expect a few minutes with the MLP backbone.
"""

import argparse
import os
import sys
import tempfile

from relfair.cli import main as cli_main

EXPERIMENT = """\
dataset: adult
variant: fairrf
model: {model}
seeds: [0, 1, 2]
output_dir: {out}
train:
  eta: 0.3
  beta: 0.5
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-dir",
                    default=os.environ.get("RELFAIR_DATA_DIR", "."))
    ap.add_argument("--output-dir", default="census_demo_out")
    ap.add_argument("--model", default="mlp", choices=["lr", "svm", "mlp"])
    ap.add_argument("--variants", default="vanilla,fairrf,fixed_lambda")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    csv = os.path.join(args.data_dir, "adult.csv")
    if not os.path.exists(csv):
        print(f"no adult.csv under {args.data_dir!r}.", file=sys.stderr)
        print("stage it first (merge the two UCI halves, strip the trailing "
              "'.' from the test labels, add a header), or run the test "
              "suite once with network access and reuse its cache.",
              file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="census-demo-") as tmp:
        cfg_path = os.path.join(tmp, "exp.yaml")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(EXPERIMENT.format(model=args.model,
                                       out=os.path.join(args.output_dir, "train")))

        common = ["-c", cfg_path, "--data-dir", args.data_dir,
                  "--workers", str(args.workers)]
        print(f"== train ({args.model}, eta=0.3, beta=0.5) ==")
        rc = cli_main(["train", *common])
        if rc != 0:
            return rc
        print()
        print(f"== compare ({args.variants}) ==")
        rc = cli_main([
            "compare", *common,
            "--output-dir", os.path.join(args.output_dir, "comparison"),
            "--variants", args.variants,
        ])
    print()
    print(f"artifacts under {args.output_dir}/train/ and {args.output_dir}/comparison/ "
          f"-- see manifest.json in each for the full list, report.txt for the "
          f"human-readable summary, and seed_*/trace.jsonl for per-epoch trajectories.")
    return rc


if __name__ == "__main__":
    sys.exit(main())
