"""On-disk dataset format: load and save temporal graphs.

A dataset is a directory holding a text manifest and four data files:

* ``manifest`` -- ``key=value`` lines (see :func:`read_key_values`); required
  keys ``format_version=1``, ``num_vertices``, ``feature_dim``, ``num_classes``,
  the last three non-negative integers.
* ``edges``    -- ``src dst`` pairs of 0-based vertex ids; direction is ignored.
* ``times``    -- one integer per vertex, vertex i first.
* ``labels``   -- one integer per vertex; ``-1`` means unlabeled.
* ``features`` -- num_vertices * feature_dim reals, row-major.

Each data file comes in a binary and a text form; when both exist the binary
file wins.  :func:`save_dataset` writes only the binary forms, and
:func:`dataset_fingerprint` hashes what it would write for the loaded graph,
so both forms of one graph share a fingerprint.

* ``edges.bin``, ``times.bin``, ``labels.bin`` -- 64-bit little-endian
  integers, no header; ``edges.bin`` holds the pairs one after the other.
* ``edges``, ``times``, ``labels`` -- UTF-8 text, one pair or integer per
  non-blank line, read a line at a time.  Integers follow ``int()``'s rules
  and must fit in 64 bits.
* ``features.bin`` -- 32-bit little-endian reals, no header.
* ``features.csv`` -- UTF-8 text, one row of comma-separated reals per
  non-blank line, row i = vertex i, read a line at a time.  Cells follow
  ``float()``'s rules; 9 significant digits hold a float32 exactly.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DatasetError, EvographError, ValidationError
from .graph import TemporalGraph

_DATASET_FILES = ("manifest", "edges", "edges.bin", "times", "times.bin", "labels", "labels.bin",
                  "features.bin", "features.csv")
# integer file -> (values per row, the text parse's messages: bad width, bad value, out of range)
_INT_FILES = {
    "edges": (2, "expected 'src dst', got", "non-integer vertex id in", "vertex id out of range in"),
    "times": (1, "non-integer timestamp", "non-integer timestamp", "timestamp out of range"),
    "labels": (1, "non-integer label", "non-integer label", "label out of range"),
}
_INT64 = np.iinfo(np.int64)


def read_bytes(path: Path, error: type[EvographError]) -> bytes:
    """``path``'s bytes; raises ``error`` naming the file if it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path: Path, error: type[EvographError]) -> str:
    """``path``'s UTF-8 text; raises ``error`` naming the file if it cannot be
    read or is not UTF-8."""
    try:
        return read_bytes(path, error).decode("utf-8")
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


def _int_rows_by_line(text: str, name: str, width: int, bad_width: str, bad_value: str,
                      out_of_range: str) -> np.ndarray:
    """The integers in ``text``, ``width`` per non-blank line, as an (N, width)
    array: the one reader of a text integer file, a line at a time.

    Each token is parsed by ``int()``; DatasetError names the first bad line
    as ``name:line`` with ``bad_width``, ``bad_value`` or ``out_of_range``
    (beyond int64) and the line.
    """
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != width:
            raise DatasetError(f"{name}:{lineno}: {bad_width} {raw.strip()!r}")
        try:
            row = list(map(int, parts))
        except ValueError:
            raise DatasetError(f"{name}:{lineno}: {bad_value} {raw.strip()!r}") from None
        if not _INT64.min <= min(row) <= max(row) <= _INT64.max:
            raise DatasetError(f"{name}:{lineno}: {out_of_range} {raw.strip()!r}")
        values += row
    return np.array(values, dtype=np.int64).reshape(-1, width)


def _float_rows_by_line(text: str, name: str, feature_dim: int) -> np.ndarray:
    """The reals in ``text``, one row per non-blank line, as an (N, W) float32
    array: the one reader of ``features.csv``, a line at a time.

    Cells are split at ``,`` and parsed by ``float()``, so whitespace around a
    cell is allowed; the first row sets the width W, and a text with no row
    gives shape (0, ``feature_dim``).  DatasetError names the first bad line
    as ``name:line`` with its first bad cell and column, or its width.  A
    value beyond the float32 range becomes inf, without a warning.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        cells = raw.split(",")
        try:
            row = list(map(float, cells))
        except ValueError:
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{name}:{lineno}: non-numeric value {cell.strip()!r} in column {col}"
                    ) from None
        if rows and len(row) != len(rows[0]):
            raise DatasetError(f"{name}:{lineno}: {len(row)} values, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        return np.zeros((0, feature_dim), dtype=np.float32)
    with np.errstate(over="ignore"):
        return np.array(rows, dtype=np.float32)


def _read_optional(root: Path, name: str) -> bytes | None:
    """The bytes of dataset file ``name`` in ``root``, or None if it does not exist."""
    path = root / name
    return read_bytes(path, DatasetError) if path.exists() else None


def _read_int_file(root: Path, name: str) -> np.ndarray:
    """Integer file ``name`` (a key of ``_INT_FILES``) as an (N, width) int64 array.

    ``<name>.bin`` wins if it exists; its byte count must be a whole number
    of rows, else DatasetError names the file and its size.  Otherwise the
    text file ``name`` is parsed by :func:`_int_rows_by_line`.
    """
    width, *messages = _INT_FILES[name]
    data = _read_optional(root, f"{name}.bin")
    if data is None:
        return _int_rows_by_line(read_text(root / name, DatasetError), name, width, *messages)
    if len(data) % (8 * width):
        raise DatasetError(f"{name}.bin holds {len(data)} bytes, not a whole number of {8 * width}-byte rows")
    return np.frombuffer(data, dtype="<i8").reshape(-1, width)


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

    edges = _read_int_file(root, "edges")
    times = _read_int_file(root, "times").ravel()
    labels = _read_int_file(root, "labels").ravel()

    if (data := _read_optional(root, "features.bin")) is not None:
        expected = num_vertices * feature_dim
        if len(data) != 4 * expected:
            raise ValidationError(
                f"features.bin holds {len(data) / 4:.12g} values, expected {expected} "
                f"({num_vertices} x {feature_dim})"
            )
        features = np.frombuffer(data, dtype="<f4").reshape(num_vertices, feature_dim)
    elif (csv := root / "features.csv").exists():
        features = _float_rows_by_line(read_text(csv, DatasetError), "features.csv", feature_dim)
        if features.shape != (num_vertices, feature_dim):
            raise ValidationError(
                f"features.csv is {features.shape[0]} x {features.shape[1]}, "
                f"expected {num_vertices} x {feature_dim}"
            )
    else:
        raise DatasetError(f"missing file: features.bin or features.csv (in {root})")

    if times.size != num_vertices:
        raise ValidationError(f"times has {times.size} entries, expected {num_vertices}")
    # TemporalGraph checks the labels count, the label range and the edge endpoints
    g = TemporalGraph(
        num_vertices=num_vertices,
        edges=edges,
        time=times,
        features=features,
        labels=labels,
        num_classes=num_classes,
    )
    if loops := int(np.count_nonzero(edges[:, 0] == edges[:, 1])):
        warnings.warn(f"{root.name}: dropped {loops} self-loop(s)", stacklevel=2)
    return g


def _saved_files(g: TemporalGraph) -> dict[str, bytes]:
    """The bytes of each file :func:`save_dataset` writes for ``g``, by name,
    in ``_DATASET_FILES`` order."""
    manifest = (
        "format_version=1\n"
        f"num_vertices={g.num_vertices}\n"
        f"feature_dim={g.feature_dim}\n"
        f"num_classes={g.num_classes}\n"
    )
    return {
        "manifest": manifest.encode("utf-8"),
        "edges.bin": g.edges.astype("<i8").tobytes(),
        "times.bin": g.time.astype("<i8").tobytes(),
        "labels.bin": g.labels.astype("<i8").tobytes(),
        "features.bin": g.features.astype("<f4").tobytes(),
    }


def save_dataset(g: TemporalGraph, path) -> None:
    """Write ``g`` in the dataset directory format, as its binary files (see
    module docstring).

    Dataset files in ``path`` that this save does not write, such as text
    forms or a ``features.csv``, are removed, so the directory holds one graph.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    files = _saved_files(g)
    for name in _DATASET_FILES:
        if name not in files:
            (root / name).unlink(missing_ok=True)
    for name, data in files.items():
        (root / name).write_bytes(data)


def dataset_fingerprint(g: TemporalGraph) -> str:
    """SHA-256 over the names and bytes of the files :func:`save_dataset`
    writes for ``g``: each name, a NUL byte, then the file's bytes.

    It is the graph's, not its files': a text dataset and its binary copy,
    which load to equal graphs, share it.
    """
    digest = hashlib.sha256()
    for name, data in _saved_files(g).items():
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(data)
    return digest.hexdigest()
