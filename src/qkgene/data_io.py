"""CSV loading and artifact writing, label mapping, stratified splits, phase scaling.

Datasets are dense float matrices with one row per sample and labels in
{-1, +1}. Splits and scaling are the two places where train/test leakage
could creep in, so both are explicit: splits return index-disjoint parts
and the scaler follows a fit/apply contract (fit on train, apply to both).
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

POSITIVE = 1
NEGATIVE = -1


@dataclass
class LabeledDataset:
    """Feature matrix plus aligned -1/+1 labels and optional gene names."""

    features: np.ndarray
    labels: np.ndarray
    gene_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"labels length {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or infinite entries")
        extra = set(np.unique(self.labels).tolist()) - {POSITIVE, NEGATIVE}
        if extra:
            raise DataError(f"labels must be -1 or +1, found {sorted(extra)}")
        if self.gene_names and len(self.gene_names) != self.features.shape[1]:
            raise DataError("gene_names length does not match feature count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_genes(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def subset(self, rows) -> "LabeledDataset":
        rows = np.asarray(rows, dtype=np.int64)
        return LabeledDataset(self.features[rows], self.labels[rows], list(self.gene_names))

    def select_genes(self, mask) -> "LabeledDataset":
        mask = np.asarray(mask).astype(bool)
        if mask.shape != (self.n_genes,):
            raise DataError("gene mask length does not match feature count")
        if not mask.any():
            raise DataError("gene mask selects no genes")
        names = [n for n, keep in zip(self.gene_names, mask) if keep] if self.gene_names else []
        return LabeledDataset(self.features[:, mask], self.labels, names)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.25
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie strictly between 0 and 1")


def load_csv(path, label_column, positive_label: str) -> LabeledDataset:
    """Read a header+rows CSV into a LabeledDataset.

    label_column picks the label field by header name (str) or position
    (int). Cells equal to positive_label become +1, everything else -1;
    exactly two distinct raw label values must be present.

    Plain files (no quotes, only printable characters and newlines) are
    parsed by np.loadtxt; any other file, and any plain file it rejects, is
    read cell by cell with csv.reader and float(), which words the errors.
    Both routes accept the same files and return equal arrays.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    parsed = _parse_plain(text, label_column)
    if parsed is None:
        parsed = _parse_cells(path, label_column)
    gene_names, features, raw_labels = parsed

    if len(features) < 2:
        raise DataError(f"{path}: need at least 2 samples")
    distinct = sorted(set(raw_labels))
    if len(distinct) == 1:
        raise DataError(f"{path}: single-class dataset ({distinct[0]!r})")
    if len(distinct) > 2:
        raise DataError(f"{path}: expected 2 classes, found {len(distinct)}: {distinct}")
    if str(positive_label) not in distinct:
        raise DataError(
            f"{path}: positive label {positive_label!r} not among classes {distinct}"
        )
    labels = np.where(np.array(raw_labels) == str(positive_label), POSITIVE, NEGATIVE)
    return LabeledDataset(np.asarray(features), labels, gene_names)


def _label_index(header: list[str], label_column) -> int:
    width = len(header)
    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise DataError(f"label column index {label_column} out of range")
        return label_idx
    try:
        return header.index(label_column)
    except ValueError:
        raise DataError(f"label column {label_column!r} not in header") from None


def _parse_plain(text: str, label_column):
    """(gene names, features, raw labels) of a plain file, or None.

    Without quotes and control characters other than newline, csv.reader
    splits each non-blank line on its commas and nothing else, so str.split
    gives the same rows. On such cells np.loadtxt and float() agree: both
    strip spaces and parse with the same correctly rounded routine, and the
    forms only float() accepts ('1_000', non-ASCII digits) make loadtxt
    raise. Returns None wherever the per-cell route could decide otherwise,
    so that route gives the result or the error message; only the shared
    label-column check raises here.
    """
    if '"' in text:
        return None
    lines = text.split("\n")
    if not all(line.isprintable() for line in lines):
        return None
    lines = [line for line in lines if line]
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    width = len(header)
    label_idx = _label_index(header, label_column)
    genes = [i for i in range(width) if i != label_idx]
    limit = csv.field_size_limit()  # csv.reader raises on longer fields
    if not genes or any(
        line.count(",") != width - 1
        or (len(line) > limit and max(map(len, line.split(","))) > limit)
        for line in lines
    ):
        return None
    try:
        features = np.loadtxt(lines[1:], delimiter=",", usecols=genes,
                              comments=None, ndmin=2)
    except ValueError:
        return None
    if features.shape != (len(lines) - 1, len(genes)):
        return None
    raw_labels = [line.split(",", label_idx + 1)[label_idx].strip() for line in lines[1:]]
    return [header[i] for i in genes], features, raw_labels


def _parse_cells(path, label_column):
    """(gene names, feature rows, raw labels) through csv.reader and float()."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = rows[0]
    width = len(header)
    label_idx = _label_index(header, label_column)
    gene_names = [h for i, h in enumerate(header) if i != label_idx]

    features = []
    raw_labels = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        raw_labels.append(row[label_idx].strip())
        sample = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                sample.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {header[i]!r}"
                ) from None
        features.append(sample)
    return gene_names, features, raw_labels


def render(value) -> str:
    """A float as its shortest round-trip repr, anything else as str."""
    return repr(value) if isinstance(value, float) else str(value)


def _cell(value) -> str:
    # quoted exactly where csv.writer's default (excel, QUOTE_MINIMAL) quotes
    text = render(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def table_lines(rows):
    """One CSV row, ending in \\r\\n, per row of values (see `render`)."""
    for row in rows:
        yield ",".join(map(_cell, row)) + "\r\n"


def long_format_lines(matrix, prefix: str = ""):
    """Rows `{prefix}{i},{j},{value}` of a 2-d matrix, one chunk per matrix row.

    Each value is repr(float(matrix[i, j])) and each row ends in \\r\\n.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[1] == 0:
        return
    cols = [f"{j}," for j in range(matrix.shape[1])]
    for i in range(matrix.shape[0]):
        head = f"{prefix}{i},"
        # joining on "\r\n{head}" ends one line and starts the next,
        # so each value costs a single concatenation
        yield head + ("\r\n" + head).join(
            [col + repr(v) for col, v in zip(cols, matrix[i].tolist())]) + "\r\n"


def write_text(path, chunks, newline: str | None = None) -> None:
    """Write text chunks to `<path>.tmp<pid>`, then rename that file to path.

    A reader never finds a half-written file at path, and a failed write
    leaves no temporary file behind.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline=newline) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:  # re-raised: an interrupt must not leave it either
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, comments, header, lines) -> None:
    """Write one CSV artifact through `write_text`.

    The file holds a `# comment` line ending in \\n per comment, the header
    row, then the text chunks of `lines` (from `table_lines` or
    `long_format_lines`), streamed so the file is never built in memory.
    """
    def chunks():
        for comment in comments:
            yield f"# {comment}\n"
        yield from table_lines([header])
        yield from lines

    write_text(path, chunks(), newline="")


def split_indices(labels, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train, test) row indices, each sorted ascending."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed)
    n = len(labels)
    if spec.stratified:
        train_parts, test_parts = [], []
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            if len(members) < 2:
                raise DataError(f"class {cls} has fewer than 2 samples")
            n_test = round(len(members) * spec.test_fraction)
            if n_test == 0 or n_test == len(members):
                raise DataError(
                    f"test_fraction {spec.test_fraction} leaves class {cls} "
                    "absent from one side of the split"
                )
            perm = rng.permutation(members)
            test_parts.append(perm[:n_test])
            train_parts.append(perm[n_test:])
        train = np.sort(np.concatenate(train_parts))
        test = np.sort(np.concatenate(test_parts))
    else:
        n_test = round(n * spec.test_fraction)
        if n_test == 0 or n_test == n:
            raise DataError("test_fraction leaves one side of the split empty")
        perm = rng.permutation(n)
        test = np.sort(perm[:n_test])
        train = np.sort(perm[n_test:])
    return train, test


def stratified_split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    train_idx, test_idx = split_indices(ds.labels, spec)
    return ds.subset(train_idx), ds.subset(test_idx)


@dataclass
class PhaseScaler:
    """Per-column affine map onto [lo, hi], fitted once and reapplied.

    Columns that are constant in the fitted data map to lo. Values outside
    the fitted range (e.g. test data) are clamped before scaling.
    """

    lo: float = 0.0
    hi: float = math.pi
    col_min: np.ndarray | None = None
    col_max: np.ndarray | None = None

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigError("phase range requires hi > lo")

    def fit(self, features) -> "PhaseScaler":
        features = np.asarray(features, dtype=np.float64)
        self.col_min = features.min(axis=0)
        self.col_max = features.max(axis=0)
        return self

    def transform_features(self, features) -> np.ndarray:
        if self.col_min is None:
            raise ValueError("scaler used before fit")
        features = np.asarray(features, dtype=np.float64)
        span = self.col_max - self.col_min
        safe_span = np.where(span > 0, span, 1.0)
        clipped = np.clip(features, self.col_min, self.col_max)
        unit = np.where(span > 0, (clipped - self.col_min) / safe_span, 0.0)
        return self.lo + unit * (self.hi - self.lo)

    def transform(self, ds: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(self.transform_features(ds.features), ds.labels, list(ds.gene_names))


def scale_to_phase(ds: LabeledDataset, lo: float = 0.0, hi: float = math.pi) -> LabeledDataset:
    """Fit the scaler on ds itself and return the scaled copy."""
    return PhaseScaler(lo, hi).fit(ds.features).transform(ds)
