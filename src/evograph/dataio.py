"""On-disk dataset format: load and save temporal graphs.

A dataset is a directory of line-oriented UTF-8 text files plus features:

* ``manifest`` -- ``key=value`` lines (see :func:`read_key_values`); required
  keys ``format_version=1``, ``num_vertices``, ``feature_dim``, ``num_classes``,
  the last three non-negative integers.
* ``edges``    -- one ``src dst`` pair of 0-based decimal integers per line;
  direction is ignored.
* ``times``    -- one decimal integer per vertex, line i = vertex i.
* ``labels``   -- one decimal integer per vertex; ``-1`` means unlabeled.
* ``features.bin`` -- row-major 32-bit little-endian reals, no header,
  length num_vertices * feature_dim; or ``features.csv`` with
  comma-separated decimal reals, row i = vertex i.  When both exist the
  binary file wins.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DatasetError, EvographError, ValidationError
from .graph import TemporalGraph

_DATASET_FILES = ("manifest", "edges", "times", "labels", "features.bin", "features.csv")


def read_bytes(path: Path, error: type[EvographError]) -> bytes:
    """``path``'s bytes; raises ``error`` naming the file if it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path: Path, error: type[EvographError]) -> str:
    """``path``'s UTF-8 text; raises ``error`` naming the file if it cannot be
    read or is not UTF-8."""
    data = read_bytes(path, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_key_values(text: str, name: str, error: type[EvographError]) -> dict:
    """``text``'s ``key=value`` lines, split at the first ``=`` and stripped.

    Blank and ``#`` lines are skipped; any other line raises ``error`` as ``name:line: ...``.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{name}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def read_json(path: Path, error: type[EvographError], keys=()) -> dict:
    """The JSON object in ``path``; raises ``error`` naming the file if the
    text is not a JSON object or lacks one of ``keys``."""
    text = read_text(path, error)
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise error(f"{path}: missing key {key!r}")
    return obj


def _read_int_rows(path: Path, width: int, bad_width: str, bad_value: str) -> np.ndarray:
    """The integers of ``path``, ``width`` per non-blank line, as an (N, width) array.

    numpy converts all tokens in one call (with ``int()``'s rules).  Only if
    that fails, or a line holds another number of tokens, are the lines
    scanned in order, and DatasetError names the first bad one as
    ``file:line`` with ``bad_width`` or ``bad_value`` and the line.
    """
    text = read_text(path, DatasetError)
    widths = np.fromiter(map(len, map(str.split, text.splitlines())), dtype=np.int64)
    try:
        if np.any((widths != 0) & (widths != width)):
            raise ValueError(f"a line without {width} tokens")
        return np.array(text.split(), dtype=np.int64).reshape(-1, width)
    except ValueError:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            parts = line.split()
            if parts and len(parts) != width:
                raise DatasetError(f"{path.name}:{lineno}: {bad_width} {line!r}") from None
            try:
                for part in parts:
                    int(part)
            except ValueError:
                raise DatasetError(f"{path.name}:{lineno}: {bad_value} {line!r}") from None
        raise


def _read_ints(path: Path, what: str) -> np.ndarray:
    return _read_int_rows(path, 1, f"non-integer {what}", f"non-integer {what}").ravel()


def _read_edges(path: Path) -> tuple[np.ndarray, int]:
    arr = _read_int_rows(path, 2, "expected 'src dst', got", "non-integer vertex id in")
    return arr, int(np.count_nonzero(arr[:, 0] == arr[:, 1]))


def _bad_csv_line(path: Path) -> str | None:
    """``file:line: why`` for the first bad line of a features CSV, or None.

    Skips what numpy skips, blank lines and ``#`` comments, and checks each
    cell with ``float()``; None if that finds no fault numpy would report.
    """
    width = None
    for lineno, raw in enumerate(read_text(path, DatasetError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cells = line.split(",")
        for col, cell in enumerate(cells, start=1):
            try:
                float(cell)
            except ValueError:
                return f"{path.name}:{lineno}: non-numeric value {cell.strip()!r} in column {col}"
        width = width or len(cells)
        if len(cells) != width:
            return f"{path.name}:{lineno}: {len(cells)} values, expected {width}"
    return None


def load_dataset(path) -> TemporalGraph:
    """Load and validate a dataset directory into a TemporalGraph.

    Raises DatasetError naming the missing/offending file, or
    ValidationError with the offending counts on dimension mismatch.
    """
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(f"not a dataset directory: {root}")

    manifest = read_key_values(read_text(root / "manifest", DatasetError), "manifest", DatasetError)
    for key in ("format_version", "num_vertices", "feature_dim", "num_classes"):
        if key not in manifest:
            raise DatasetError(f"manifest: missing required key {key!r}")
    if manifest["format_version"] != "1":
        raise DatasetError(f"manifest: unsupported format_version {manifest['format_version']!r}")
    counts = []
    for key in ("num_vertices", "feature_dim", "num_classes"):
        try:
            value = int(manifest[key])
        except ValueError:
            value = None
        if value is None or value < 0:
            raise DatasetError(f"manifest: {key} must be an integer >= 0, got {manifest[key]!r}")
        counts.append(value)
    num_vertices, feature_dim, num_classes = counts

    edges, loops = _read_edges(root / "edges")
    times = _read_ints(root / "times", "timestamp")
    labels = _read_ints(root / "labels", "label")

    bin_path = root / "features.bin"
    csv_path = root / "features.csv"
    if bin_path.exists():
        data = read_bytes(bin_path, DatasetError)
        expected = num_vertices * feature_dim
        if len(data) != 4 * expected:
            raise ValidationError(
                f"features.bin holds {len(data) / 4:.12g} values, expected {expected} "
                f"({num_vertices} x {feature_dim})"
            )
        features = np.frombuffer(data, dtype="<f4").reshape(num_vertices, feature_dim)
    elif csv_path.exists():
        lines = read_text(csv_path, DatasetError).splitlines()
        try:
            features = np.loadtxt(lines, delimiter=",", dtype=np.float32, ndmin=2)
        except ValueError as exc:
            raise DatasetError(_bad_csv_line(csv_path) or f"features.csv: {exc}") from None
        if features.shape != (num_vertices, feature_dim):
            raise ValidationError(
                f"features.csv is {features.shape[0]} x {features.shape[1]}, "
                f"expected {num_vertices} x {feature_dim}"
            )
    else:
        raise DatasetError(f"missing file: features.bin or features.csv (in {root})")

    if times.size != num_vertices:
        raise ValidationError(f"times has {times.size} entries, expected {num_vertices}")
    if labels.size != num_vertices:
        raise ValidationError(f"labels has {labels.size} entries, expected {num_vertices}")
    if loops:
        warnings.warn(f"{root.name}: dropped {loops} self-loop(s)", stacklevel=2)

    return TemporalGraph(
        num_vertices=num_vertices,
        edges=edges,
        time=times,
        features=features,
        labels=labels,
        num_classes=num_classes,
    )


def save_dataset(g: TemporalGraph, path, features_format: str = "bin") -> None:
    """Write ``g`` in the dataset directory format (see module docstring)."""
    if features_format not in ("bin", "csv"):
        raise ValidationError(f"unknown features_format {features_format!r}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest").write_text(
        "format_version=1\n"
        f"num_vertices={g.num_vertices}\n"
        f"feature_dim={g.feature_dim}\n"
        f"num_classes={g.num_classes}\n",
        encoding="utf-8",
    )
    (root / "edges").write_text(
        "".join(f"{u} {v}\n" for u, v in g.edges.tolist()), encoding="utf-8"
    )
    (root / "times").write_text("".join(f"{t}\n" for t in g.time.tolist()), encoding="utf-8")
    (root / "labels").write_text("".join(f"{y}\n" for y in g.labels.tolist()), encoding="utf-8")
    if features_format == "bin":
        g.features.astype("<f4").tofile(root / "features.bin")
    else:
        np.savetxt(root / "features.csv", g.features, delimiter=",", fmt="%.8g")


def dataset_fingerprint(path) -> str:
    """SHA-256 over the dataset files' names and bytes, order-independent."""
    root = Path(path)
    digest = hashlib.sha256()
    for name in _DATASET_FILES:
        p = root / name
        if p.exists():
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(read_bytes(p, DatasetError))
    return digest.hexdigest()
