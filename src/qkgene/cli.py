"""Command line front end.

Each subcommand names a stage of pipeline.run, which recomputes the
pipeline deterministically from the config up to that stage and writes the
stage's artifacts, so stages can be inspected independently without an
artifact-passing protocol. Exit codes: 0 success, 1 configuration or usage
error, 2 data error, 3 numerical failure or out of memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

import numpy as np

from . import pipeline
from .errors import ConfigError, DataError, NumericalError

# command -> the pipeline stage it runs up to
COMMANDS = {"select": "select", "reduce": "reduce", "kernel": "kernel", "train": "train",
            "evaluate": "evaluate", "run-all": "evaluate", "compare-kernels": "compare"}

# stage -> one line on what it produced, for the stages that print one
_SUMMARIES = {
    "select": lambda r: f"selected {r.prep.mask.selected_count}/{len(r.prep.mask.bits)} genes",
    "reduce": lambda r: f"reduced to {r.prep.k_effective} components",
    "kernel": lambda r: f"kernel matrices {r.k_train.shape} and {r.k_cross.shape}",
    "train": lambda r: f"trained model with {len(r.model.support_indices)} support vectors",
}

# module that ran out of memory -> how to shrink its largest arrays
_MEMORY_HINTS = {"qkgene.optimizer": "; lower hho.n to shrink the hawk population",
                 "qkgene.quantum": "; lower pca.k to halve the quantum states per step"}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: exit 1 with one line, not argparse's
    exit 2 (the data-error code) with a usage block."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args does not change it, and
    a parser built per call is cyclic garbage that lingers in the heap
    until a collection."""
    parser = _Parser(
        prog="qkgene",
        description="Gene selection and quantum-kernel classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="key=value config file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
        cmd.add_argument("--data", help="shorthand for --set data.path=...")
        cmd.add_argument("--out", help="shorthand for --set out.dir=...")
        cmd.add_argument("--seed", help="shorthand for --set seed=...")
        if name != "select":
            cmd.add_argument("--no-selection", action="store_true",
                             help="shorthand for --set selection.enabled=false")
    return parser


def _config_from_args(args) -> pipeline.PipelineConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(pipeline.load_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    if args.data:
        mapping["data.path"] = args.data
    if args.out:
        mapping["out.dir"] = args.out
    if args.seed is not None:
        mapping["seed"] = args.seed
    if getattr(args, "no_selection", False):
        mapping["selection.enabled"] = "false"
    return pipeline.parse_config(mapping)


def _dispatch(args) -> None:
    cfg = _config_from_args(args)
    stage = COMMANDS[args.command]
    res = pipeline.run(cfg, stage)
    if stage == "evaluate":
        print(json.dumps(res.metrics, sort_keys=True, indent=2))
    elif stage == "compare":
        for row in res.rows:
            print(f"{row['kernel']:>10}  accuracy={row['accuracy']:.4f}  "
                  f"f1={row['f1']:.4f}  auc={row['auc']:.4f}")
    else:
        print(f"{_SUMMARIES[stage](res)}; artifacts in {cfg.out_dir}")


def main(argv=None) -> int:
    try:
        _dispatch(_build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # the innermost stage module in the traceback names the key
        names = [f.f_globals.get("__name__") for f, _ in traceback.walk_tb(exc.__traceback__)]
        hint = next((_MEMORY_HINTS[n] for n in reversed(names) if n in _MEMORY_HINTS), "")
        print(f"numerical failure: out of memory ({exc or 'allocation failed'}){hint}",
              file=sys.stderr)
        return 3
    except OSError as exc:  # reading inputs raises the errors above, so this is a write
        print(f"config error: cannot write to out.dir: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
