import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkgene import data_io
from qkgene.data_io import (
    LabeledDataset,
    PhaseScaler,
    SplitSpec,
    load_csv,
    split_indices,
    stratified_split,
)
from qkgene.errors import ConfigError, DataError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_label_mapping(self, tmp_path):
        path = write_csv(
            tmp_path,
            "g1,g2,label\n1.0,2.0,tumor\n3.0,4.0,tumor\n5.0,6.0,normal\n",
        )
        ds = load_csv(path, "label", positive_label="tumor")
        assert ds.features.shape == (3, 2)
        assert ds.labels.tolist() == [1, 1, -1]
        assert ds.gene_names == ["g1", "g2"]

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(tmp_path, "a,b\nx,1.0\ny,2.0\n")
        ds = load_csv(path, 0, positive_label="x")
        assert ds.labels.tolist() == [1, -1]
        assert ds.features.tolist() == [[1.0], [2.0]]

    def test_single_class_error(self, tmp_path):
        path = write_csv(tmp_path, "g,label\n1.0,a\n2.0,a\n")
        with pytest.raises(DataError, match="single-class"):
            load_csv(path, "label", positive_label="a")

    def test_three_class_error(self, tmp_path):
        path = write_csv(tmp_path, "g,label\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError):
            load_csv(path, "label", positive_label="a")

    def test_missing_positive_label_error(self, tmp_path):
        path = write_csv(tmp_path, "g,label\n1,a\n2,b\n")
        with pytest.raises(DataError):
            load_csv(path, "label", positive_label="zzz")

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", "label", positive_label="a")

    def test_ragged_row_error(self, tmp_path):
        path = write_csv(tmp_path, "g1,g2,label\n1,2,a\n3,b\n")
        with pytest.raises(DataError):
            load_csv(path, "label", positive_label="a")

    def test_non_numeric_feature_error(self, tmp_path):
        path = write_csv(tmp_path, "g,label\noops,a\n2,b\n")
        with pytest.raises(DataError):
            load_csv(path, "label", positive_label="a")

    def test_colon_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [",".join(f"g{i}" for i in range(2000)) + ",label"]
        labels = ["tumor"] * 40 + ["normal"] * 22
        for lab in labels:
            rows.append(",".join(repr(float(v)) for v in rng.normal(size=2000))
                        + f",{lab}")
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        ds = load_csv(path, "label", positive_label="tumor")
        assert ds.features.shape == (62, 2000)
        assert ds.class_counts() == {1: 40, -1: 22}

    def test_decode_error_offset_is_absolute_past_the_first_read_chunk(self, tmp_path):
        """The plain route reads line by line, and a decoder raising there
        counts from the start of its read chunk, not of the file."""
        head = "g1,label\n" + "1.25,a\n2.5,b\n" * 6000
        path = tmp_path / "late.csv"
        path.write_bytes(head.encode() + b"3.0,caf\xe9\n")
        offset = len(head) + len("3.0,caf")
        assert offset >= 70_000
        with pytest.raises(DataError, match=f"byte 0xe9 at offset {offset}$"):
            load_csv(path, "label", positive_label="a")

    @pytest.mark.parametrize("n_rows, n_genes", [(600, 200), (62, 2000)])
    def test_peak_stays_within_twice_the_feature_matrix(self, tmp_path, n_rows, n_genes):
        """The text and its lines are never held: the plain route streams
        the file into np.loadtxt one line at a time."""
        rng = np.random.default_rng(n_genes)
        path = tmp_path / "wide.csv"
        with open(path, "w") as fh:
            fh.write(",".join(f"g{i}" for i in range(n_genes)) + ",label\n")
            for i in range(n_rows):
                fh.write(",".join(map(repr, rng.normal(size=n_genes).tolist()))
                         + ("," + "ab"[i % 2]) + "\n")
        tracemalloc.start()
        try:
            ds = load_csv(path, "label", positive_label="a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (n_rows, n_genes)
        assert peak < 2 * ds.features.nbytes, peak / ds.features.nbytes


def as_file(text):
    """The lines of text as load_csv reads them, split at \\n alone."""
    return io.StringIO(text, newline="\n")


def parse_outcome(parse, *args):
    """A parser's result with arrays as bytes, or its DataError message."""
    try:
        result = parse(*args)
    except DataError as exc:
        return ("error", str(exc))
    if result is None:
        return None
    names, features, labels = result
    features = np.asarray(features, dtype=np.float64)
    return names, features.shape, features.tobytes(), labels


# cells both routes accept, spelled in every way float() allows on plain text
PLAIN_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+1.5", " 2.5 ", "-inf", "1e400", "5e-324", ".5", "5.", "007"]),
)
# cells that take the per-cell route or that it rejects: forms only float()
# accepts, control characters, quotes, stray separators, malformed numbers
ODD_CELLS = st.one_of(
    st.sampled_from(["\t3", "1_000", "\u0661\u0662", "\u20031.5", "\x1c2", "1e", "",
                     " ", "abc", '"4.5"', '"1,5"', "0x10", "1__0", "\x0c7"]),
    st.text(alphabet="0123456789.eE+-_ ,\"\t\r\n\x1c\u0661nai", max_size=6),
)
LABELS = st.sampled_from(["a", "b", " a", "b ", '"a"', "a,b", ""])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(2, 5))
    label_idx = draw(st.integers(0, width - 1))
    header = [f"g{i}" for i in range(width)]
    header[label_idx] = "label"
    lines = [",".join(header)]
    odd = draw(st.booleans())
    cells_st = st.one_of(PLAIN_CELLS, ODD_CELLS) if odd else PLAIN_CELLS
    blank_st = st.sampled_from(["", " "] if odd else [""])
    for _ in range(draw(st.integers(1, 5))):
        cells = [draw(cells_st) for _ in range(width)]
        cells[label_idx] = draw(LABELS if odd else st.sampled_from(["a", "b", " b "]))
        if odd:
            cells += draw(st.lists(cells_st, max_size=1))  # an extra trailing field
        lines.append(",".join(cells))
        lines += draw(st.lists(blank_st, max_size=1))  # blank lines
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    label_column = draw(st.sampled_from(["label", label_idx, label_idx - width]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), label_column


BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8, as spreadsheet "CSV UTF-8" exports begin


class TestByteOrderMark:
    @pytest.mark.parametrize("last_cell", [b"2", b'"2"'], ids=["loadtxt", "per_cell"])
    def test_leading_mark_is_dropped_on_both_routes(self, tmp_path, monkeypatch, last_cell):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + b"label,g1\r\na,1.5\r\nb," + last_cell + b"\r\n")
        if last_cell == b"2":  # a plain file: the per-cell route must not run
            monkeypatch.setattr(data_io, "_parse_cells", None)
        ds = load_csv(path, "label", positive_label="a")
        assert ds.gene_names == ["g1"]
        assert ds.features.tolist() == [[1.5], [2.0]]
        assert ds.labels.tolist() == [1, -1]

    def test_mark_does_not_force_the_per_cell_route(self):
        text = (BOM + b"label,g1\r\na,1.5\r\nb,2\r\n").decode()
        assert data_io._parse_plain(as_file(text), "label") is None  # the mark is not printable
        assert data_io._parse_plain(as_file(text.removeprefix("\ufeff")), "label") is not None

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_bytes(BOM + BOM + b"label,g1\na,1\nb,2\n")
        with pytest.raises(DataError, match="label column 'label' not in header"):
            load_csv(path, "label", positive_label="a")

    def test_run_all_reads_a_marked_file(self, tmp_path):
        from qkgene import cli
        from qkgene.synth import planted_dataset

        ds = planted_dataset(24, 4, 2, seed=3)
        rows = [b"label," + ",".join(ds.gene_names).encode()]
        rows += [("a" if y == 1 else "b").encode() + b"," + ",".join(map(repr, x.tolist())).encode()
                 for x, y in zip(ds.features, ds.labels)]
        path = tmp_path / "marked.csv"
        path.write_bytes(BOM + b"\r\n".join(rows) + b"\r\n")
        argv = ["run-all", "--data", str(path), "--out", str(tmp_path / "out"),
                "--no-selection", "--set", "data.positive_label=a", "--set", "pca.k=2"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


class TestPlainParser:
    """The np.loadtxt route must agree with the csv.reader + float() route
    on every file it accepts, and leave every other file to that route."""

    @given(case=csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_per_cell_route(self, tmp_path_factory, case):
        text, label_column = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with open(path, newline="") as fh:
            read_back = fh.read()
        plain = parse_outcome(data_io._parse_plain, as_file(read_back), label_column)
        if plain is not None:
            assert plain == parse_outcome(data_io._parse_cells, read_back, path, label_column)

    @pytest.mark.parametrize("text, label_column", [
        ("g1,label,g2\n1.0,a,2.0\n3.0,b,4.0\n", "label"),
        ("label,g1\na,1e5\nb,-0.0\n", 0),
        ("g1,g2,label\n\n1,2,a\n\n3,4,b\n", -1),
        ("g1,label\n 1.5 ,a\n+2,b\n", "label"),
        ("g1,label\r\n1.5,a\r\n2,b\r\n", "label"),  # CRLF line ends
        ("g1,label\r\n\r\n1.5,a\r\n2,b", 1),       # CRLF blank line, no final newline
    ])
    def test_plain_files_take_the_fast_route(self, tmp_path, text, label_column):
        path = write_csv(tmp_path, text)
        plain = parse_outcome(data_io._parse_plain, as_file(text), label_column)
        assert plain is not None
        assert plain == parse_outcome(data_io._parse_cells, text, path, label_column)

    @pytest.mark.parametrize("label_idx", [0, 700, 1300, 2000])
    def test_wide_rows_agree_wherever_the_label_sits(self, tmp_path, label_idx):
        rng = np.random.default_rng(label_idx)
        header = [f"g{i}" for i in range(2000)]
        header.insert(label_idx, "label")
        lines = [",".join(header)]
        for lab in ["tumor", " normal", "tumor "] * 4:
            cells = [repr(v) for v in rng.normal(size=2000).tolist()]
            cells.insert(label_idx, lab)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        path = write_csv(tmp_path, text)
        plain = parse_outcome(data_io._parse_plain, as_file(text), "label")
        assert plain is not None
        assert plain[1] == (12, 2000)
        assert plain == parse_outcome(data_io._parse_cells, text, path, "label")

    @pytest.mark.parametrize("text", [
        "g1,label\n1_000,a\n2,b\n",         # float() accepts, loadtxt does not
        'g1,label\n"1.5",a\n2,b\n',         # quoted cell
        "g1,label\r\n1.5,a\r\r\n2,b\r\n",  # a second \r before a line end
        "g1,label\r1.5,a\r2,b\r",          # lone \r line ends
        "g1,label\n\x1c1.5,a\n2,b\n",      # loadtxt strips \x1c, float() does not
        "g1,label\n1.5,a,9\n2,b\n",         # extra trailing field
    ])
    def test_other_files_take_the_per_cell_route(self, text):
        assert data_io._parse_plain(as_file(text), "label") is None

    def test_per_cell_route_reads_the_file_once(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path, 'g1,label\n"1.5",a\n2,b\n')
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(data_io, "open", counting_open, raising=False)
        ds = load_csv(path, "label", positive_label="a")
        assert ds.features.ravel().tolist() == [1.5, 2.0]
        assert len(opened) == 1

    def test_errors_name_line_and_column(self, tmp_path):
        path = write_csv(tmp_path, "g1,label\n1.0,a\n2.0,b\nx,a\n")
        with pytest.raises(DataError, match=r"data.csv:4: non-numeric value 'x' in column 'g1'"):
            load_csv(path, "label", positive_label="a")
        path = write_csv(tmp_path, "g1,label\n1.0,a\n2.0,b,7\n", name="wide.csv")
        with pytest.raises(DataError, match=r"wide.csv:3: expected 2 fields, got 3"):
            load_csv(path, "label", positive_label="a")


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))

    def test_bad_label_values(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 2)), np.array([1, 0]))

    def test_non_finite_features(self):
        with pytest.raises(DataError):
            LabeledDataset(np.array([[1.0, np.nan]]), np.array([1]))

    def test_select_genes_subset(self):
        ds = LabeledDataset(np.arange(6.0).reshape(2, 3), np.array([1, -1]),
                            gene_names=["a", "b", "c"])
        sub = ds.select_genes(np.array([1, 0, 1], dtype=np.int8))
        assert sub.features.tolist() == [[0.0, 2.0], [3.0, 5.0]]
        assert sub.gene_names == ["a", "c"]


class TestSplit:
    def test_proportional_rounding(self):
        labels = np.array([1] * 5 + [-1] * 5)
        train, test = split_indices(labels, SplitSpec(0.2, seed=1))
        assert labels[test].tolist().count(1) == 1
        assert labels[test].tolist().count(-1) == 1
        assert len(train) == 8

    def test_deterministic(self):
        labels = np.array([1] * 7 + [-1] * 9)
        a = split_indices(labels, SplitSpec(0.25, seed=5))
        b = split_indices(labels, SplitSpec(0.25, seed=5))
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()

    def test_colon_counts(self):
        labels = np.array([1] * 40 + [-1] * 22)
        _train, test = split_indices(labels, SplitSpec(0.25, seed=3))
        test_pos = int(np.sum(labels[test] == 1))
        test_neg = int(np.sum(labels[test] == -1))
        assert abs(test_pos - 10) <= 1
        assert abs(test_neg - 5.5) <= 1

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0)
        with pytest.raises(ConfigError):
            SplitSpec(1.0)

    def test_degenerate_class_error(self):
        labels = np.array([1, 1, 1, -1])
        with pytest.raises(DataError):
            split_indices(labels, SplitSpec(0.25, seed=0))

    @given(
        n_pos=st.integers(4, 30),
        n_neg=st.integers(4, 30),
        frac=st.floats(0.2, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_pos, n_neg, frac, seed):
        labels = np.array([1] * n_pos + [-1] * n_neg)
        train, test = split_indices(labels, SplitSpec(frac, seed=seed))
        merged = sorted(train.tolist() + test.tolist())
        assert merged == list(range(n_pos + n_neg))
        for cls, count in ((1, n_pos), (-1, n_neg)):
            expect = round(count * frac)
            assert np.sum(labels[test] == cls) == expect

    def test_stratified_split_wraps_indices(self):
        ds = LabeledDataset(np.arange(20.0).reshape(10, 2),
                            np.array([1] * 5 + [-1] * 5))
        train, test = stratified_split(ds, SplitSpec(0.2, seed=0))
        assert train.n_samples == 8
        assert test.n_samples == 2


class TestPhaseScaler:
    def test_affine_endpoints(self):
        scaler = PhaseScaler(0.0, math.pi).fit(np.array([[0.0], [5.0], [10.0]]))
        out = scaler.transform_features(np.array([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(out.ravel(), [0.0, math.pi / 2, math.pi])

    def test_constant_column_maps_to_lo(self):
        scaler = PhaseScaler(0.25, 2.0).fit(np.array([[7.0], [7.0], [7.0]]))
        out = scaler.transform_features(np.array([[7.0], [7.0], [7.0]]))
        np.testing.assert_allclose(out.ravel(), [0.25, 0.25, 0.25])

    def test_range_scan(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(5, 3)) * 10
        scaler = PhaseScaler(0.0, math.pi).fit(data)
        out = scaler.transform_features(data)
        assert np.all(out >= 0.0) and np.all(out <= math.pi)

    def test_out_of_range_rows_clamped(self):
        scaler = PhaseScaler(0.0, 1.0).fit(np.array([[0.0], [1.0]]))
        out = scaler.transform_features(np.array([[-5.0], [9.0]]))
        np.testing.assert_allclose(out.ravel(), [0.0, 1.0])

    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            PhaseScaler(1.0, 1.0)
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                       (-math.inf, 0.0), (-1e308, 1e308)):
            with pytest.raises(ConfigError):
                PhaseScaler(lo, hi)

    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=4),
            min_size=2,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_bounds(self, rows):
        data = np.array(rows)
        scaler = PhaseScaler(0.5, 2.5).fit(data)
        out = scaler.transform_features(data)
        assert np.all(out >= 0.5 - 1e-12) and np.all(out <= 2.5 + 1e-12)
        cols = data.max(axis=0) - data.min(axis=0)
        for j, span in enumerate(cols):
            if span > 0:
                assert math.isclose(out[:, j].min(), 0.5, abs_tol=1e-9)
                assert math.isclose(out[:, j].max(), 2.5, abs_tol=1e-9)

    def test_scale_to_phase_convenience(self):
        # the default bounds scale to phase [0, pi], fitted on the dataset
        # they then transform, with the labels kept
        ds = LabeledDataset(np.array([[0.0], [2.0]]), np.array([1, -1]))
        out = PhaseScaler().fit(ds.features).transform(ds)
        np.testing.assert_allclose(out.features.ravel(), [0.0, math.pi])
        assert out.labels.tolist() == ds.labels.tolist()
