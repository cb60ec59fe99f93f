import re

import numpy as np
import pytest

import evograph as eg
from evograph import dataio
from evograph.config import load_config, load_manifest
from evograph.errors import ConfigError, DatasetError, ValidationError


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
        ("0.5,1.0\n\n# note\n1.5\n2.5,3.0\n3.5,4.0\n", "features.csv:4: 1 values, expected 2"),
        ("# h\n0.5,1.0\n1.5,2.0 # c\n2.5,3.0,\n3.5,4.0\n",
         "features.csv:4: non-numeric value '' in column 3"),
    ],
    ids=["ragged-after-blank-and-comment", "trailing-comma"],
)
def test_bad_feature_line_counts_blank_and_comment_lines(fixture_dir, text, match):
    (fixture_dir / "features.csv").write_text(text)
    with pytest.raises(DatasetError, match=f"^{match}$"):
        eg.load_dataset(fixture_dir)


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


def test_save_load_round_trip(tmp_path, graph_factory):
    g = graph_factory(11, unlabeled_frac=0.2)
    for fmt in ("bin", "csv"):
        out = tmp_path / f"rt_{fmt}"
        eg.save_dataset(g, out, features_format=fmt)
        back = eg.load_dataset(out)
        assert back.num_vertices == g.num_vertices
        assert np.array_equal(back.edges, g.edges)
        assert np.array_equal(back.time, g.time)
        assert np.array_equal(back.labels, g.labels)
        if fmt == "bin":
            assert np.array_equal(back.features, g.features)
        else:
            assert np.allclose(back.features, g.features, atol=1e-6)


def test_unknown_features_format_writes_nothing(tmp_path, graph_factory):
    out = tmp_path / "npy"
    with pytest.raises(ValidationError, match="features_format 'npy'"):
        eg.save_dataset(graph_factory(3), out, features_format="npy")
    assert not out.exists()


def test_fingerprint_tracks_content(tmp_path, graph_factory):
    g = graph_factory(5)
    out = tmp_path / "fp"
    eg.save_dataset(g, out)
    fp1 = eg.dataset_fingerprint(out)
    assert fp1 == eg.dataset_fingerprint(out)
    (out / "labels").write_text("0\n" * g.num_vertices)
    assert eg.dataset_fingerprint(out) != fp1


def test_fingerprint_of_missing_directory_raises(tmp_path):
    # not the digest of no bytes, which a run manifest would report as a changed dataset
    with pytest.raises(DatasetError, match=f"^not a dataset directory: {re.escape(str(tmp_path / 'gone'))}$"):
        eg.dataset_fingerprint(tmp_path / "gone")


def test_save_bytes_unchanged(tmp_path):
    # pinned digests: saved files must stay byte-identical whenever the writer changes
    g = eg.TemporalGraph(
        num_vertices=6,
        edges=[(3, 1), (0, 5), (1, 3), (2, 2), (5, 0), (0, 1), (4, 2)],
        time=[2000, 2001, 1999, 2003, -7, 2001],
        features=np.arange(12, dtype=np.float32).reshape(6, 2) / 7,
        labels=[0, -1, 1, 2, 1, -1],
        num_classes=3,
    )
    expected = {
        "bin": "7fb8eff3f4038b26cbf3daa994578c97fcad19589e07e32fcf87a74a1797986e",
        "csv": "3144148259b306877b356d17295c2dc8530a024e85b19d5681ee45d7751efbcf",
    }
    for fmt, digest in expected.items():
        eg.save_dataset(g, tmp_path / fmt, features_format=fmt)
        assert eg.dataset_fingerprint(tmp_path / fmt) == digest


def line_by_line_ints(path, what):
    """Reference reader: one int() per stripped non-blank line."""
    values = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise DatasetError(f"{path.name}:{lineno}: non-integer {what} {line!r}") from None
    return np.asarray(values, dtype=np.int64)


def line_by_line_edges(path):
    """Reference reader: split each non-blank line into exactly two int() tokens."""
    pairs = []
    loops = 0
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
        loops += u == v
        pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2), loops


def outcome(read, path):
    """What a reader makes of ``path``: its error message, or its arrays as plain values."""
    try:
        result = read(path)
    except DatasetError as exc:
        return str(exc)
    arr, *rest = result if isinstance(result, tuple) else (result,)
    return arr.dtype, arr.shape, arr.tolist(), rest


READERS = {
    "edges": (dataio._read_edges, line_by_line_edges),
    "times": (lambda p: dataio._read_ints(p, "timestamp"), lambda p: line_by_line_ints(p, "timestamp")),
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
       for name in ("manifest", "edges", "times", "labels", "features.bin", "features.csv")},
    "model/manifest": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
    "model/params.bin": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
    "no-model/manifest": (lambda p: eg.load_checkpoint(p.parent), ValidationError),
}
OPTIONAL = ("ds/features.bin", "ds/features.csv")


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


def test_fingerprint_names_unreadable_file(fixture_dir):
    path = fixture_dir / "edges"
    path.unlink()
    path.mkdir()
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: cannot read \\("):
        eg.dataset_fingerprint(fixture_dir)
