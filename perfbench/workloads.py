"""Workload definitions and the input generator shared by every benchmark script.

A workload is one `qkgene run-all` configuration plus the shape of the
synthetic expression matrix it runs on. Inputs come from
`qkgene.synth.planted_dataset`, so the program generates its own data; the
benchmark only fixes the shape and the seeds.

A run's --seed picks INPUTS_PER_RUN data seeds out of a fixed pool of
POOL_SIZE. Each pool seed has a stored reference (reference/<workload>.json)
that the output check compares against, so every seed a run can draw is
covered. A run cycles through several inputs so that its medians do not
hinge on how much work one particular dataset happens to need.
"""
from __future__ import annotations

from dataclasses import dataclass

POOL_SIZE = 32
INPUTS_PER_RUN = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_genes: int
    n_informative: int = 5
    shift: float = 3.0
    positive_fraction: float = 0.5
    selection: bool = False
    settings: tuple[str, ...] = ()

    def cli_args(self, csv_path: str, out_dir: str, seed: int) -> list[str]:
        """Arguments for `qkgene run-all` on one generated input."""
        args = ["run-all", "--data", csv_path, "--out", out_dir, "--seed", str(seed)]
        if not self.selection:
            args.append("--no-selection")
        for item in self.settings:
            args += ["--set", item]
        return args

    def setting(self, key: str) -> str:
        return dict(item.split("=", 1) for item in self.settings)[key]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="colon_select",
            n_samples=62, n_genes=2000, n_informative=10, shift=2.0,
            positive_fraction=0.645, selection=True,
            settings=("pca.k=4", "qk.map=zz", "qk.mode=exact"),
        ),
        Workload(
            name="kernel_exact",
            n_samples=200, n_genes=300,
            settings=("pca.k=12", "qk.map=zz", "qk.mode=exact"),
        ),
        Workload(
            name="kernel_sampled",
            n_samples=60, n_genes=300,
            settings=("pca.k=6", "qk.map=pauli_zyy", "qk.mode=sampled",
                      "qk.shots=1000"),
        ),
        Workload(
            name="artifacts_rbf",
            n_samples=600, n_genes=200, shift=1.0,
            settings=("pca.k=8", "qk.map=rbf"),
        ),
    )
}


def data_seeds(run_seed: int) -> list[int]:
    """Pool seeds that a run with --seed run_seed uses, in call order."""
    return [(INPUTS_PER_RUN * run_seed + j) % POOL_SIZE for j in range(INPUTS_PER_RUN)]


def write_input_csv(workload: Workload, data_seed: int, path: str) -> None:
    """Write the workload's dataset for data_seed as a CLI-ready CSV.

    Same layout as scripts/make_synthetic_csv.py: gene columns, then a
    `label` column holding 1 / -1.
    """
    from qkgene.synth import planted_dataset

    ds = planted_dataset(workload.n_samples, workload.n_genes, workload.n_informative,
                         shift=workload.shift, seed=data_seed,
                         positive_fraction=workload.positive_fraction)
    with open(path, "w") as fh:
        fh.write(",".join(ds.gene_names + ["label"]) + "\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join([repr(float(v)) for v in row] + [str(int(label))]) + "\n")
