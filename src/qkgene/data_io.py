"""CSV loading and artifact writing, label mapping, stratified splits, phase scaling.

Datasets are dense float matrices with one row per sample and labels in
{-1, +1}. Splits and scaling are the two places where train/test leakage
could creep in, so both are explicit: splits return index-disjoint parts
and the scaler follows a fit/apply contract (fit on train, apply to both).
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import floatrepr
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
    """How to split; `key` is the name error messages give test_fraction,
    the config key a user set (split.test_fraction, fitness.val_fraction)."""

    test_fraction: float = 0.25
    seed: int = 0
    stratified: bool = True
    key: str = "test_fraction"

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"{self.key} must lie strictly between 0 and 1")


def load_csv(path, label_column, positive_label: str) -> LabeledDataset:
    """Read a header+rows CSV into a LabeledDataset.

    label_column picks the label field by header name (str) or position
    (int). Cells equal to positive_label become +1, everything else -1;
    exactly two distinct raw label values must be present. One leading
    byte-order mark (U+FEFF) is dropped.

    Plain files (no quotes, only printable characters and LF or CRLF line
    ends) are streamed line by line into np.loadtxt; any other file, and any
    plain file it rejects, is read again from the same handle, whole, and
    parsed cell by cell with csv.reader and float(), which words the
    errors. Both routes accept the same files and return equal arrays.
    """
    try:
        with open(path, newline="\n") as fh:  # lines end at \n alone; nothing is translated
            try:
                if fh.read(1) != "\ufeff":  # the byte-order mark of "CSV UTF-8" exports
                    fh.seek(0)
                parsed = _parse_plain(fh, label_column)
            except UnicodeDecodeError:  # the one read below reports its absolute offset
                parsed = None
            if parsed is None:
                fh.seek(0)
                parsed = _parse_cells(fh.read().removeprefix("\ufeff"), path, label_column)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text: byte {exc.object[exc.start]:#04x} "
                        f"at offset {exc.start}") from None
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


class _NotPlain(Exception):
    """A line the np.loadtxt route cannot vouch for."""


def _plain_lines(lines):
    """The non-blank lines of `lines`, each without its \\n and one trailing
    \\r, as they are read. Raises _NotPlain at a quote or at an
    unprintable character, such as a lone \\r."""
    for line in lines:
        line = line.removesuffix("\n").removesuffix("\r")
        if '"' in line or not line.isprintable():
            raise _NotPlain
        if line:
            yield line


def _parse_plain(lines, label_column):
    """(gene names, features, raw labels) of a plain file, or None.

    `lines` yields the file's lines, split at \\n alone and with their line
    ends, as a text file opened with newline="\\n" does. It is read once:
    np.loadtxt takes each data line as it is read and checked, and its
    label is kept on the way, so neither the text nor a list of its lines
    is held.

    With one trailing carriage return dropped per line, csv.reader reads a
    file without quotes and other control characters as one row per
    non-blank line split on its commas alone, so str.split gives the same
    rows. On such cells np.loadtxt and float() agree: both strip spaces and
    parse with the same correctly rounded routine, and the forms only
    float() accepts ('1_000', non-ASCII digits) make loadtxt raise. Returns
    None wherever the per-cell route could decide otherwise, so that route
    gives the result or the error; that includes a missing label column,
    which that route reports after any error of its own that comes first,
    and text that cannot be decoded.
    """
    rows = _plain_lines(lines)
    try:
        header = next(rows, None)
        first = next(rows, None)
        if first is None:
            return None
        header = header.split(",")
        width = len(header)
        label_idx = _label_index(header, label_column)
        genes = [i for i in range(width) if i != label_idx]
        if not genes:
            return None
        limit = csv.field_size_limit()  # csv.reader raises on longer fields
        from_right = 2 * label_idx > width - 1  # exact comma count: split from the nearer end
        raw_labels = []

        def data_lines():
            for line in itertools.chain([first], rows):
                if line.count(",") != width - 1 or (
                        len(line) > limit and max(map(len, line.split(","))) > limit):
                    raise _NotPlain
                raw_labels.append((line.rsplit(",", width - label_idx)[1] if from_right
                                   else line.split(",", label_idx + 1)[label_idx]).strip())
                yield line

        features = np.loadtxt(data_lines(), delimiter=",", usecols=genes,
                              comments=None, ndmin=2)
    except (_NotPlain, DataError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if features.shape != (len(raw_labels), len(genes)):
        return None
    return [header[i] for i in genes], features, raw_labels


def _parse_cells(text: str, path, label_column):
    """(gene names, feature rows, raw labels) through csv.reader and float();
    path only names the file in errors."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
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
    """A float (np.float64 included) as its shortest round-trip repr, anything
    else as str."""
    return float.__repr__(value) if isinstance(value, float) else str(value)


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

    Each value is exactly repr(float(matrix[i, j])) and each line ends in
    \\r\\n. `floatrepr.lines` renders the values with numpy in passes of
    up to 4096 values (at least one matrix row), in one memory-mapped
    buffer per call: 4096 × (19 + record words) × 8 bytes, 0.8-0.9 MB.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    yield from floatrepr.lines([f"{prefix}{i}," for i in range(n_rows)],
                               [f"{j}," for j in range(n_cols)], matrix)


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
                    f"{spec.key} {spec.test_fraction} leaves class {cls} "
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
            raise DataError(f"{spec.key} {spec.test_fraction} leaves one side of the split empty")
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
        if not math.isfinite(self.hi - self.lo):
            raise ConfigError("phase range hi - lo must be finite")

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

