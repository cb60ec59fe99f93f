import re
import shutil
import warnings

import numpy as np
import pytest

import evograph as eg
from conftest import csv_features, raises_exactly, text_copy
from evograph import dataio
from evograph.cli import main
from evograph.config import load_config, load_manifest
from evograph.errors import ConfigError, DatasetError, EvographError, TaskSequenceError, ValidationError
from test_acceptance import DET_BENCH, SEQ_BENCH


@pytest.fixture
def fixture_dir(tmp_path):
    """Hand-written 4-vertex dataset."""
    d = tmp_path / "ds"
    d.mkdir()
    (d / "manifest").write_text(
        "format_version=1\nnum_vertices=4\nfeature_dim=2\nnum_classes=2\n"
    )
    (d / "edges").write_text("0 1\n1 2\n2 3\n")
    (d / "times").write_text("1\n2\n3\n4\n")
    (d / "labels").write_text("0\n1\n-1\n1\n")
    (d / "features.csv").write_text("0.5,1.0\n1.5,2.0\n2.5,3.0\n3.5,4.0\n")
    return d


def test_well_formed_round_trip(fixture_dir):
    g = eg.load_dataset(fixture_dir)
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert g.labels[2] == eg.UNLABELED
    adj = g.adjacency().toarray()
    assert np.array_equal(adj, adj.T)
    assert g.features[1, 1] == np.float32(2.0)


def test_missing_file_named(tmp_path, fixture_dir):
    (fixture_dir / "times").unlink()
    with pytest.raises(DatasetError, match="times"):
        eg.load_dataset(fixture_dir)


def test_edge_out_of_range_cites_vertex(fixture_dir):
    (fixture_dir / "edges").write_text("7 1\n")
    with pytest.raises(ValidationError, match="7"):
        eg.load_dataset(fixture_dir)


def test_duplicate_edge_merged(fixture_dir):
    (fixture_dir / "edges").write_text("1 2\n2 1\n")
    g = eg.load_dataset(fixture_dir)
    assert g.num_edges == 1


def test_self_loop_warns_with_count(fixture_dir):
    (fixture_dir / "edges").write_text("0 0\n1 1\n0 1\n")
    with pytest.warns(UserWarning, match="2 self-loop"):
        g = eg.load_dataset(fixture_dir)
    assert g.num_edges == 1
    np.array([(1, 2), (3, 3), (2, 1)], "<i8").tofile(fixture_dir / "edges.bin")
    with pytest.warns(UserWarning, match="1 self-loop"):
        g = eg.load_dataset(fixture_dir)
    assert g.edges.tolist() == [[1, 2]]


def test_non_integer_timestamp_cites_line(fixture_dir):
    (fixture_dir / "times").write_text("1\n2\nxyz\n4\n")
    with pytest.raises(DatasetError, match="times:3"):
        eg.load_dataset(fixture_dir)


def test_non_numeric_feature_cites_file_and_cell(fixture_dir):
    (fixture_dir / "features.csv").write_text("0.5,1.0\n1.5,2.0\nabc,3.0\n3.5,4.0\n")
    match = r"^features.csv:3: non-numeric value 'abc' in column 1$"
    with pytest.raises(DatasetError, match=match):
        eg.load_dataset(fixture_dir)


@pytest.mark.parametrize(
    "text, match",
    [
        ("0.5,1.0\n\n  \n1.5\n2.5,3.0\n3.5,4.0\n", "features.csv:4: 1 values, expected 2"),
        ("0.5,1.0\n1.5,2.0\n2.5,3.0,\n3.5,4.0\n", "features.csv:3: non-numeric value '' in column 3"),
        # float() reads no comment: a comment line, or one after a value, is a bad cell
        ("# h\n0.5,1.0\n1.5,2.0\n2.5,3.0\n3.5,4.0\n", "features.csv:1: non-numeric value '# h' in column 1"),
        ("0.5,1.0\n1.5,2.0 # c\n2.5,3.0\n3.5,4.0\n", "features.csv:2: non-numeric value '2.0 # c' in column 2"),
        ("0.5,1.0\n1.5,2.0\n  # note\n2.5,3.0\n3.5,4.0\n", "features.csv:3: non-numeric value '# note' in column 1"),
    ],
    ids=["ragged-after-blank-lines", "trailing-comma", "comment-line", "trailing-comment", "spaces-before-comment"],
)
def test_bad_feature_line_counts_blank_lines_and_names_comments(fixture_dir, text, match):
    (fixture_dir / "features.csv").write_text(text)
    with pytest.raises(DatasetError, match=f"^{match}$"):
        eg.load_dataset(fixture_dir)


def test_features_csv_cells_follow_float(fixture_dir):
    # as in the integer files: digit separators, non-ASCII digits, whitespace around a cell,
    # and lines of only whitespace skipped
    (fixture_dir / "features.csv").write_text("1_0,\u0661\n \t\n\t1.5 ,\xa02.0\r\n2.5,3.0\n\n3.5,-4e0\n")
    assert eg.load_dataset(fixture_dir).features.tolist() == [[10, 1], [1.5, 2], [2.5, 3], [3.5, -4]]


def test_empty_features_csv_gives_no_rows(tmp_path):
    # a 0-vertex dataset loads from an empty features.csv, as from a 0-byte features.bin
    ds = tmp_path / "empty"
    ds.mkdir()
    (ds / "manifest").write_text("format_version=1\nnum_vertices=0\nfeature_dim=2\nnum_classes=1\n")
    for name in ("edges", "times", "labels", "features.csv"):
        (ds / name).write_text("")
    g = eg.load_dataset(ds)
    assert g.num_vertices == 0 and g.features.shape == (0, 2) and g.features.dtype == np.float32
    (ds / "features.csv").unlink()
    (ds / "features.bin").write_bytes(b"")
    assert eg.load_dataset(ds).equals(g)


def test_zero_width_features_need_features_bin(tmp_path):
    # save_dataset writes a 0-byte features.bin; a CSV cannot hold a row of no cells, and
    # the empty lines that would stand for them are skipped
    g = eg.TemporalGraph(2, [(0, 1)], [1, 2], np.zeros((2, 0), np.float32), [0, 1], 2)
    eg.save_dataset(g, tmp_path / "ds")
    assert (tmp_path / "ds" / "features.bin").read_bytes() == b""
    loaded = eg.load_dataset(tmp_path / "ds")
    assert loaded.features.shape == (2, 0) and loaded.equals(g)
    (tmp_path / "ds" / "features.bin").unlink()
    (tmp_path / "ds" / "features.csv").write_text("\n\n")
    raises_exactly(lambda: eg.load_dataset(tmp_path / "ds"), ValidationError,
                   "features.csv is 0 x 0, expected 2 x 0")


def test_features_beyond_float32_fail_in_the_graph_check_without_a_warning(fixture_dir):
    (fixture_dir / "features.csv").write_text("0.5,1.0\n1.5,1e40\n2.5,3.0\n3.5,4.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="features contain non-finite values"):
            eg.load_dataset(fixture_dir)


def csv_by_cell(text, feature_dim):
    """Reference reader: float() on each cell of each non-blank line, in order."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        row = []
        for col, cell in enumerate(raw.split(","), start=1):
            try:
                value = float(cell)
            except ValueError:
                message = f"non-numeric value {cell.strip()!r} in column {col}"
                raise DatasetError(f"features.csv:{lineno}: {message}") from None
            with np.errstate(over="ignore"):
                row.append(np.float32(value))
        if rows and len(row) != len(rows[0]):
            raise DatasetError(f"features.csv:{lineno}: {len(row)} values, expected {len(rows[0])}")
        rows.append(row)
    return np.array(rows, dtype=np.float32).reshape(len(rows), len(rows[0]) if rows else feature_dim)


def test_features_csv_reads_like_reference():
    # random short texts over the characters that float() and a CSV split treat apart; each
    # loads to the reference's float32 rows or fails, as the reference does, at a named line
    rng = np.random.default_rng(0)
    alphabet = [*"0123456789,,,  ..e-+#\t_n", "\xa0", "\u0661", "inf", "e40", "\n", "\r\n", "\u2028"]
    rejected = 0
    for _ in range(3000):
        text = "".join(rng.choice(alphabet, size=rng.integers(1, 15)))
        result = outcome(lambda t: dataio._float_rows_by_line(t, "features.csv", 3), text)
        assert result == outcome(lambda t: csv_by_cell(t, 3), text), repr(text)
        if isinstance(result, str):
            rejected += 1
            assert re.match(r"features.csv:\d+: ", result), repr(text)
    assert rejected > 1000


def test_dimension_mismatch_cites_counts(fixture_dir):
    (fixture_dir / "labels").write_text("0\n1\n")
    with pytest.raises(ValidationError, match="2"):
        eg.load_dataset(fixture_dir)


def test_features_bin_preferred_and_exact(fixture_dir):
    values = np.arange(8, dtype="<f4") / 3.0
    values.tofile(fixture_dir / "features.bin")
    g = eg.load_dataset(fixture_dir)
    assert np.array_equal(g.features.ravel(), values)


def test_bin_length_mismatch(fixture_dir):
    np.arange(5, dtype="<f4").tofile(fixture_dir / "features.bin")
    with pytest.raises(ValidationError, match="8"):
        eg.load_dataset(fixture_dir)


# case -> (manifest counts, features.bin bytes or None for the fixture's csv, the key at fault)
BAD_COUNTS = {
    "num_vertices=-1,feature_dim=-4": (("-1", "-4", "2"), 16, "num_vertices"),
    "num_vertices=0,feature_dim=-3": (("0", "-3", "2"), 0, "feature_dim"),
    "feature_dim=-2": (("4", "-2", "2"), None, "feature_dim"),
    "num_classes=-1": (("4", "2", "-1"), None, "num_classes"),
    "num_classes=two": (("4", "2", "two"), None, "num_classes"),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_bad_manifest_count_names_the_key(fixture_dir, case):
    counts, bin_bytes, key = BAD_COUNTS[case]
    entries = dict(zip(("num_vertices", "feature_dim", "num_classes"), counts))
    (fixture_dir / "manifest").write_text(
        "format_version=1\n" + "".join(f"{k}={v}\n" for k, v in entries.items())
    )
    if bin_bytes is not None:
        (fixture_dir / "features.bin").write_bytes(bytes(bin_bytes))
    match = f"manifest: {key} must be an integer >= 0, got {entries[key]!r}"
    with pytest.raises(DatasetError, match=f"^{re.escape(match)}$"):
        eg.load_dataset(fixture_dir)


# case -> (fixture file -> its new text or bytes, None to delete it; the error class; its
# message, "{ds}" the dataset directory)
DATASET_FAULTS = {
    "no-manifest-key": (
        {"manifest": "format_version=1\nnum_vertices=4\nfeature_dim=2\n"},
        DatasetError, "manifest: missing required key 'num_classes'",
    ),
    "format-version-2": (
        {"manifest": "format_version=2\nnum_vertices=4\nfeature_dim=2\nnum_classes=2\n"},
        DatasetError, "manifest: unsupported format_version '2'",
    ),
    "features-csv-shape": (
        {"features.csv": "0.5\n1.5\n2.5\n"}, ValidationError, "features.csv is 3 x 1, expected 4 x 2",
    ),
    "no-features-file": (
        {"features.csv": None}, DatasetError, "missing file: features.bin or features.csv (in {ds})",
    ),
    "times-count": ({"times": "1\n2\n3\n"}, ValidationError, "times has 3 entries, expected 4"),
    "labels-count": ({"labels": "0\n1\n0\n"}, ValidationError, "labels has 3 entries, expected 4"),
    # the count is checked before the edges, and no self-loop warning comes first
    "labels-count-bad-edge": (
        {"labels": "0\n1\n0\n", "edges": "0 9\n"}, ValidationError, "labels has 3 entries, expected 4",
    ),
    "labels-count-self-loop": (
        {"labels": "0\n1\n0\n", "edges": "0 0\n0 1\n"}, ValidationError, "labels has 3 entries, expected 4",
    ),
    # a binary integer file wins over the fixture's text and passes the same checks
    "edges-bin-partial-row": (
        {"edges.bin": bytes(24)}, DatasetError,
        "edges.bin holds 24 bytes, not a whole number of 16-byte rows",
    ),
    "times-bin-partial-row": (
        {"times.bin": bytes(31)}, DatasetError,
        "times.bin holds 31 bytes, not a whole number of 8-byte rows",
    ),
    "times-bin-short": (
        {"times.bin": np.arange(3, dtype="<i8").tobytes()}, ValidationError,
        "times has 3 entries, expected 4",
    ),
    "edges-bin-endpoint": (
        {"edges.bin": np.array([(0, 1), (2, 9)], "<i8").tobytes()}, ValidationError,
        "edge endpoint 9 out of range for 4 vertices",
    ),
    "labels-bin-range": (
        {"labels.bin": np.array([0, 1, 5, -1], "<i8").tobytes()}, ValidationError,
        "label 5 out of range for 2 classes",
    ),
    # loads, but 25% of the vertices is first reached at the last timestamp: no task follows
    "no-task-after-start": (
        {"manifest": "format_version=1\nnum_vertices=5\nfeature_dim=2\nnum_classes=2\n",
         "times": "1\n2\n2\n2\n2\n", "labels": "0\n1\n0\n1\n1\n",
         "features.csv": "0,0\n" * 5},
        TaskSequenceError, "no timestamps after the 25% start timestamp 2",
    ),
}


@pytest.mark.parametrize("case", DATASET_FAULTS)
def test_dataset_fault_fails_library_and_run(fixture_dir, tmp_path, capsys, case):
    files, error, message = DATASET_FAULTS[case]
    for name, data in files.items():
        if data is None:
            (fixture_dir / name).unlink()
        else:
            (fixture_dir / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    message = message.format(ds=fixture_dir)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        eg.run_sequence(eg.load_dataset(fixture_dir), eg.ExperimentConfig(epochs=1))
    (tmp_path / "c.cfg").write_text(f"dataset={fixture_dir}\nepochs=1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "c.cfg"), "--output-dir", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_save_load_round_trip(tmp_path, graph_factory):
    g = graph_factory(11, unlabeled_frac=0.2)
    eg.save_dataset(g, tmp_path / "rt")
    assert eg.load_dataset(tmp_path / "rt").equals(g)


def test_text_copy_loads_equal_and_bin_files_win(tmp_path, graph_factory):
    g = graph_factory(6, unlabeled_frac=0.2)
    eg.save_dataset(g, tmp_path / "bin")
    text = text_copy(tmp_path / "bin", tmp_path / "text")
    assert eg.load_dataset(text).equals(eg.load_dataset(tmp_path / "bin"))
    assert eg.load_dataset(text).equals(g)
    # a binary integer file wins over its text form, which is then not parsed
    for name in ("edges", "times", "labels"):
        shutil.copy(tmp_path / "bin" / f"{name}.bin", text)
        (text / name).write_text("not parsed\n")
        assert eg.load_dataset(text).equals(g)


def test_save_over_a_dataset_leaves_only_its_files(tmp_path, graph_factory):
    # the old text files and hand-made features.csv hold another graph, which a reader of the
    # text alone would see
    eg.save_dataset(graph_factory(7), tmp_path / "old")
    csv_features(text_copy(tmp_path / "old", tmp_path / "ds"))
    eg.save_dataset(graph_factory(8), tmp_path / "ds")
    eg.save_dataset(graph_factory(8), tmp_path / "fresh")
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
        "edges.bin", "features.bin", "labels.bin", "manifest", "times.bin",
    ]
    assert eg.load_dataset(tmp_path / "ds").equals(eg.load_dataset(tmp_path / "fresh"))


def test_csv_text_copy_loads_equal_and_analyzes_the_same(tmp_path):
    # every dataset file in its text form, the features at 9 significant digits
    g = eg.generate(eg.SynthConfig(num_timestamps=6, vertices_per_timestamp=30, feature_dim=8, seed=4))
    eg.save_dataset(g, tmp_path / "bin")
    text = csv_features(text_copy(tmp_path / "bin", tmp_path / "text"))
    assert sorted(p.name for p in text.iterdir()) == ["edges", "features.csv", "labels", "manifest", "times"]
    assert eg.load_dataset(text).equals(g)
    for ds in ("bin", "text"):
        assert main(["analyze-tdiff", str(tmp_path / ds), "--output-dir", str(tmp_path / f"an-{ds}"),
                     "--quiet"]) == 0
    for f in ("tdiff.json", "tdiff.csv"):
        assert (tmp_path / "an-bin" / f).read_bytes() == (tmp_path / "an-text" / f).read_bytes()


def test_fingerprint_tracks_the_graph(tmp_path, graph_factory):
    g = graph_factory(5)
    out = tmp_path / "fp"
    eg.save_dataset(g, out)
    fp1 = eg.dataset_fingerprint(g)
    assert eg.dataset_fingerprint(eg.load_dataset(out)) == fp1
    # a text file beside its binary form is not loaded, so it does not count
    (out / "labels").write_text("0\n" * g.num_vertices)
    assert eg.dataset_fingerprint(eg.load_dataset(out)) == fp1
    (out / "labels.bin").unlink()
    assert eg.dataset_fingerprint(eg.load_dataset(out)) != fp1


def test_load_of_missing_directory_raises(tmp_path):
    with pytest.raises(DatasetError, match=f"^not a dataset directory: {re.escape(str(tmp_path / 'gone'))}$"):
        eg.load_dataset(tmp_path / "gone")


def test_save_bytes_unchanged(tmp_path):
    # pinned digest: saved files, and so fingerprints, must stay byte-identical whenever the
    # writer changes; a text copy of the graph shares its fingerprint
    g = eg.TemporalGraph(
        num_vertices=6,
        edges=[(3, 1), (0, 5), (1, 3), (2, 2), (5, 0), (0, 1), (4, 2)],
        time=[2000, 2001, 1999, 2003, -7, 2001],
        features=np.arange(12, dtype=np.float32).reshape(6, 2) / 7,
        labels=[0, -1, 1, 2, 1, -1],
        num_classes=3,
    )
    eg.save_dataset(g, tmp_path / "bin")
    # the fingerprint hashes the very bytes save_dataset writes
    assert {p.name: p.read_bytes() for p in (tmp_path / "bin").iterdir()} == dataio._saved_files(g)
    assert eg.dataset_fingerprint(eg.load_dataset(tmp_path / "bin")) == (
        "eb3aa01c5b2c3b63459ae8dc2b75dac7819802281e4d8621489112b6c3502d24")
    text = csv_features(text_copy(tmp_path / "bin", tmp_path / "bin-text"))
    assert eg.dataset_fingerprint(eg.load_dataset(text)) == (
        "eb3aa01c5b2c3b63459ae8dc2b75dac7819802281e4d8621489112b6c3502d24")


# the fingerprints that earlier versions wrote into run manifests on the acceptance benches
BENCH_FINGERPRINTS = {
    "SEQ_BENCH": (SEQ_BENCH, "e5169b2e88589c957920045ae32a5ed83680c3b2cb9845826530de2c1444555d"),
    "DET_BENCH": (DET_BENCH, "ae101e83cc7d564b4aa00df62ad7398e5404fe03e13ae7c6a74ce2aa4a5230ec"),
}


@pytest.mark.parametrize("name", BENCH_FINGERPRINTS)
def test_bench_fingerprints_unchanged(name):
    cfg, fingerprint = BENCH_FINGERPRINTS[name]
    assert eg.dataset_fingerprint(eg.generate(cfg)) == fingerprint


INT64 = np.iinfo(np.int64)


def line_by_line_ints(path, what):
    """Reference reader: one int() per stripped non-blank line."""
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise DatasetError(f"{path.name}:{lineno}: non-integer {what} {line!r}") from None
        if not INT64.min <= value <= INT64.max:
            raise DatasetError(f"{path.name}:{lineno}: {what} out of range {line!r}")
        values.append(value)
    return np.asarray(values, dtype=np.int64)


def line_by_line_edges(path):
    """Reference reader: split each non-blank line into exactly two int() tokens."""
    pairs = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DatasetError(f"{path.name}:{lineno}: expected 'src dst', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetError(f"{path.name}:{lineno}: non-integer vertex id in {line!r}") from None
        if not (INT64.min <= u <= INT64.max and INT64.min <= v <= INT64.max):
            raise DatasetError(f"{path.name}:{lineno}: vertex id out of range in {line!r}")
        pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def outcome(read, source):
    """What a reader makes of ``source``: its error message, or its array's dtype, shape and bytes."""
    try:
        arr = read(source)
    except DatasetError as exc:
        return str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


READERS = {
    "edges": (lambda p: dataio._read_int_file(p.parent, "edges"), line_by_line_edges),
    "times": (
        lambda p: dataio._read_int_file(p.parent, "times").ravel(),
        lambda p: line_by_line_ints(p, "timestamp"),
    ),
}


def assert_reads_like_reference(tmp_path, text):
    for name, (read, reference) in READERS.items():
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read, path) == outcome(reference, path), repr(text)


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n1 2 3\n2 3\n",  # three tokens
        "0 1\n1 x\n",  # non-integer token
        "0 1\n1.5 2\n",
        "0 1\n\n\n  \n1 2\n\n",  # blank lines
        "0 1\n1 2",  # last line without newline
        "0 1\r\n1 2\r\n\r\n2 2\r\n",  # CRLF endings, a self-loop
        "3\n1\n4\n",
        "3\n1 4\n",
        "",
        "\n\n",
        " -1 +2\t\n1_0 ٣\n",  # int() accepts signs, digit separators and non-ASCII digits
        "0 1\x0c1 2\n",  # form feed splits lines like a newline
        "0\xa01\n",  # no-break space separates tokens
        "-0\n007\n+5\n",  # plain text: signs, leading zeros
        "1-2\n", "-\n", "+-1\n", "\r", "1\r2\n",  # plain text loadtxt rejects
        "0 1\n2\n",  # mixed widths
        f"{2**63 - 1} {-2**63}\n",  # the int64 bounds
        f"0 1\n{2**63} 1\n",  # one past them
        f"{-2**63 - 1}\n",
    ],
)
def test_loader_matches_line_by_line(tmp_path, text):
    assert_reads_like_reference(tmp_path, text)


def test_loader_truncated_last_line(tmp_path):
    for text in ("0 1\n12 34\n", "5\n67\n", "0 1\r\n12 34\r\n"):
        for cut in range(len(text) + 1):
            assert_reads_like_reference(tmp_path, text[:cut])


def test_loader_fuzz(tmp_path):
    # well-formed files with one to three characters deleted or inserted, and random text
    rng = np.random.default_rng(7)
    alphabet = list("0123456789   \t\n\n\r-+_x")
    for base in ("0 1\n2 3\n\n4 5\r\n6 7\n", "3\n1\n\n4\r\n1\n5\n"):
        for _ in range(150):
            chars = list(base)
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.integers(0, len(chars)))
                if rng.random() < 0.5:
                    del chars[i]
                else:
                    chars.insert(i, str(rng.choice(alphabet)))
            assert_reads_like_reference(tmp_path, "".join(chars))
    for _ in range(150):
        assert_reads_like_reference(tmp_path, "".join(rng.choice(alphabet, size=int(rng.integers(0, 16)))))
    # binary integer files cut, with bits flipped, with bytes appended, or random: each loads
    # or raises the library's error, never another exception
    ds = tmp_path / "bin"
    eg.save_dataset(eg.TemporalGraph(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 3, 4], np.zeros((4, 2)),
                                     [0, 1, -1, 1], 2), ds)
    originals = {name: (ds / name).read_bytes() for name in ("edges.bin", "times.bin", "labels.bin")}
    errors = 0
    for name, data in originals.items():
        for _ in range(100):
            draw = rng.integers(4)
            if draw == 0:
                mutated = data[: int(rng.integers(len(data)))]
            elif draw == 1:
                mutated = bytearray(data)
                for i in rng.integers(len(data), size=int(rng.integers(1, 4))):
                    mutated[i] ^= 1 << int(rng.integers(8))
            elif draw == 2:
                mutated = data + rng.bytes(int(rng.integers(1, 17)))
            else:
                mutated = rng.bytes(8 * int(rng.integers(0, 9)))
            (ds / name).write_bytes(bytes(mutated))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # dropped self-loops
                    eg.load_dataset(ds)
            except EvographError:
                errors += 1
        (ds / name).write_bytes(data)
    assert 100 < errors < 300


@pytest.mark.parametrize("value", [2**63, -2**63 - 1])
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("times", "1\n2\n3\n{}\n", "times:4: timestamp out of range '{}'"),
        ("labels", "0\n{}\n-1\n1\n", "labels:2: label out of range '{}'"),
        ("edges", "0 1\n1 2\n2 {}\n", "edges:3: vertex id out of range in '2 {}'"),
    ],
)
def test_integer_beyond_int64_names_the_line(fixture_dir, value, name, text, message):
    (fixture_dir / name).write_text(text.format(value))
    with pytest.raises(DatasetError, match=f"^{re.escape(message.format(value))}$"):
        eg.load_dataset(fixture_dir)


def test_saved_graph_reaches_no_text_parser(tmp_path, monkeypatch):
    # what save_dataset writes is read without a text parse; a text copy reaches the parsers
    g = eg.generate(eg.SynthConfig(num_timestamps=6, vertices_per_timestamp=30, seed=5))
    eg.save_dataset(g, tmp_path / "ds")
    csv_features(text_copy(tmp_path / "ds", tmp_path / "text"))

    def reached(*args):
        raise AssertionError("a text parser reached")

    for parser in ("_int_rows_by_line", "_float_rows_by_line"):
        monkeypatch.setattr(dataio, parser, reached)
    assert eg.load_dataset(tmp_path / "ds").equals(g)
    with pytest.raises(AssertionError, match="a text parser reached"):
        eg.load_dataset(tmp_path / "text")


def test_load_reads_each_parsed_file_once(tmp_path, graph_factory, monkeypatch):
    g = graph_factory(4)
    eg.save_dataset(g, tmp_path / "ds")
    for name in ("edges", "times", "labels", "features.csv"):
        (tmp_path / "ds" / name).write_text("not loaded\n")
    reads = []
    read_bytes = dataio.read_bytes
    monkeypatch.setattr(dataio, "read_bytes", lambda p, error: reads.append(p.name) or read_bytes(p, error))
    # each binary file wins over its text form, which is not read
    assert eg.load_dataset(tmp_path / "ds").equals(g)
    assert reads == ["manifest", "edges.bin", "times.bin", "labels.bin", "features.bin"]


def test_load_dataset_names_bad_edge_line(fixture_dir):
    (fixture_dir / "edges").write_text("0 1\n\n1 2 3\n")
    with pytest.raises(DatasetError, match="edges:3: expected 'src dst'"):
        eg.load_dataset(fixture_dir)


def test_read_key_values_rules():
    text = "# a comment\n\n  a = 1 \nb=x=y\n   # indented comment\nc=\n"
    assert dataio.read_key_values(text, "f", DatasetError) == {"a": "1", "b": "x=y", "c": ""}
    with pytest.raises(ConfigError, match=r"^f:3: expected key=value, got 'oops'$"):
        dataio.read_key_values("a=1\n\noops\n", "f", ConfigError)


def test_manifest_comment_lines_skipped(fixture_dir):
    manifest = fixture_dir / "manifest"
    manifest.write_text("# written by hand\n" + manifest.read_text())
    assert eg.load_dataset(fixture_dir).num_vertices == 4


# file with one non-UTF-8 byte -> (what reads it, the error it must raise);
# ``ds`` is ``fixture_dir``
NON_UTF8 = {
    "run.cfg": (load_config, ConfigError),
    **{f"ds/{name}": (lambda p: eg.load_dataset(p.parent), DatasetError)
       for name in ("manifest", "edges", "times", "labels", "features.csv")},
    "model/manifest": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
}


@pytest.mark.parametrize("name", NON_UTF8)
def test_non_utf8_byte_names_the_file(tmp_path, fixture_dir, name):
    eg.save_checkpoint(eg.init_model("mlp", 2, 3, 2), tmp_path / "model")
    (tmp_path / "run.cfg").write_text(f"format_version=1\ndataset={fixture_dir}\n")
    path = tmp_path / name
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    read, error = NON_UTF8[name]
    with pytest.raises(error, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        read(path)


# file that cannot be read -> (what reads it, the error it must raise);
# ``ds`` is ``fixture_dir``.  Each is tried as a directory, the required ones
# also missing.
UNREADABLE = {
    "run.cfg": (load_config, ConfigError),
    "run/manifest.json": (load_manifest, ConfigError),
    **{f"ds/{name}": (lambda p: eg.load_dataset(p.parent), DatasetError)
       for name in dataio._DATASET_FILES},
    "model/manifest": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
    "model/params.bin": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
    "no-model/manifest": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
}
# the fixture needs none of the files with a suffix: binary files and features.bin or features.csv
OPTIONAL = tuple(f"ds/{name}" for name in dataio._DATASET_FILES if "." in name)


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name in UNREADABLE for kind in ("missing", "directory")
     if kind == "directory" or name not in OPTIONAL],
)
def test_unreadable_file_names_the_file(tmp_path, fixture_dir, name, kind):
    eg.save_checkpoint(eg.init_model("mlp", 2, 3, 2), tmp_path / "model")
    path = tmp_path / name
    path.unlink(missing_ok=True)
    if kind == "directory":
        path.mkdir(parents=True)
    read, error = UNREADABLE[name]
    with pytest.raises(error, match=f"^{re.escape(str(path))}: cannot read \\("):
        read(path)
