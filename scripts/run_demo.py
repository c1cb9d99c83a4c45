"""Small end-to-end demo: gene selection, oversampling, PCA, quantum kernel, SVM.

Builds a 60-sample synthetic dataset with 5 informative genes out of 200 and
ten deliberately loud noise genes. Variance-driven PCA locks onto the loud
noise unless the selection stage prunes it first, so the with/without runs
show what the gene search buys. Finishes in a few seconds on one CPU.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qkgene.data_io import LabeledDataset
from qkgene.pipeline import PipelineConfig, run
from qkgene.synth import planted_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/demo", help="artifact directory")
    args = parser.parse_args(argv)

    ds = planted_dataset(60, 200, 5, shift=2.5, seed=1000 + args.seed)
    features = ds.features.copy()
    features[:, 100:110] *= 4.0  # loud junk: high variance, no class signal
    ds = LabeledDataset(features, ds.labels, ds.gene_names)
    cfg = PipelineConfig(pca_k=4, hho_iters=50, seed=args.seed,
                         scale_hi=0.5, out_dir=args.out)

    for use_selection in (True, False):
        tag = "with selection" if use_selection else "no selection"
        start = time.monotonic()
        payload = run(cfg, "evaluate", use_selection=use_selection, ds=ds).metrics
        elapsed = time.monotonic() - start
        print(f"[{tag}] accuracy={payload['accuracy']:.3f} "
              f"auc={payload['auc']:.3f} f1={payload['f1']:.3f} "
              f"genes={payload['selected_count']} ({elapsed:.1f}s)")

    print("kernel comparison (no selection):")
    result = run(cfg, "compare", use_selection=False, ds=ds)
    for row in result.rows:
        print(f"  {row['kernel']:>10s}  accuracy={row['accuracy']:.3f} "
              f"auc={row['auc']:.3f}")
    print(f"artifacts in {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
