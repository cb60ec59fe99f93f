"""Seeded fuzz of the files evograph reads back.

The files are a run's config file, a run's ``manifest.json`` and
``summary.json`` (read by ``run --from-manifest`` and ``report``), and a
checkpoint's ``manifest`` and ``params.bin`` (read by ``load_checkpoint``).
Each draw truncates a file, flips bits in it, drops one of its keys or gives
one of its values another type.  The command line must then exit 0 with
outputs that parse, or exit 1 or 2 with one ``error:`` or ``config error:``
line that names the file; the library must return a model or raise an
EvographError subclass.  Anything else, a traceback included, fails the test.
"""

import json
import random
import shutil
import zlib

import numpy as np
import pytest

import evograph as eg
from evograph.cli import main
from evograph.errors import EvographError

DRAWS = 12  # per (file, mutation) row


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A small dataset and three finished runs: mlp warm (``run``), its cold twin and sage + gDOC."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["generate", str(data), "--num-timestamps", "6", "--vertices-per-timestamp", "12",
                 "--feature-dim", "4", "--quiet"]) == 0
    configs = {
        "run": "model=mlp\nhistory_size=2\nepochs=2\nseeds=0,1\n",
        "cold": "model=mlp\nhistory_size=2\nepochs=2\nseeds=0,1\nrestart=cold\n",
        "sage": "model=sage\ndetector=gdoc\nhistory_size=2\nepochs=2\nseeds=0,1\n",
    }
    for name, text in configs.items():
        (root / f"{name}.cfg").write_text(f"dataset={data}\n{text}")
        assert main(["run", "--config", str(root / f"{name}.cfg"), "--output-dir", str(root / name),
                     "--quiet"]) == 0
    return root


def _truncate(data: bytes, rng) -> bytes:
    return data[: rng.randrange(len(data))]


def _flip(data: bytes, rng) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _json_paths(obj, prefix=()):
    """Every key path of ``obj``, one object level deep."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict) and not prefix:
            yield from _json_paths(value, (key,))


# values of every JSON type, and numbers that no float holds
OTHER_VALUES = [None, True, 0, -1, 2.5, 10**400, "", "x", "1", [], [1.5], {}, {"mean": 0.5}]
# config and checkpoint values that parse as other types than the key's
OTHER_TEXTS = ["", "x", "-1", "0", "2.5", "1e400", "nan", "true", "full", "3,4", "none", "é"]


def _drop_key(data: bytes, rng) -> bytes:
    if data.startswith(b"{"):
        obj = json.loads(data)
        *parent, key = rng.choice(list(_json_paths(obj)))
        del (obj[parent[0]] if parent else obj)[key]
        return json.dumps(obj).encode()
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _swap_type(data: bytes, rng) -> bytes:
    if data.startswith(b"{"):
        obj = json.loads(data)
        *parent, key = rng.choice(list(_json_paths(obj)))
        (obj[parent[0]] if parent else obj)[key] = rng.choice(OTHER_VALUES)
        return json.dumps(obj).encode()
    lines = data.decode().splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i] = lines[i].split("=", 1)[0] + "=" + rng.choice(OTHER_TEXTS) + "\n"
    return "".join(lines).encode()


def _append(data: bytes, rng) -> bytes:
    return data + bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))


MUTATIONS = {"truncate": _truncate, "flip": _flip, "drop-key": _drop_key, "swap-type": _swap_type,
             "append": _append}


def _cli(argv, capsys, names, check_outputs):
    """Run ``main(argv)``: exit 0 with outputs that parse, or 1 or 2 with one error line naming one of ``names``."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        check_outputs(out)
        return
    assert code in (1, 2), (code, err)
    lines = err.splitlines()
    assert len(lines) == 1, err
    prefix = "config error: " if code == 2 else "error: "
    assert lines[0].startswith(prefix), err
    assert any(str(name) in lines[0] for name in names), err


def _run_outputs_parse(out_dir):
    def check(stdout):
        for name in ("manifest.json", "summary.json"):
            assert isinstance(json.loads((out_dir / name).read_text()), dict)
        reports = sorted(out_dir.glob("report_seed*.jsonl"))
        assert reports
        for report in reports:
            assert all(isinstance(json.loads(line), dict) for line in report.read_text().splitlines())
    return check


def _table_parses(rows: int, numbers: int):
    """A header, then at most ``rows`` rows of its width ending in ``numbers`` number cells, each
    a float or empty.  A mutated config may leave a run without its partner row."""
    def check(stdout):
        header, *body = stdout.splitlines()
        assert len(body) <= rows, stdout
        for row in body:
            cells = row.split(",")
            assert len(cells) == len(header.split(",")), stdout
            for cell in cells[-numbers:]:
                if cell:
                    float(cell)
    return check


def _dataset_given(path) -> list:
    """The dataset path that the config or run manifest at ``path`` gives, if it gives one:
    an error about that path names it, not the file."""
    text = path.read_bytes().decode("utf-8", "replace")
    if path.suffix == ".json":
        try:
            given = [json.loads(text)["config"]["dataset"]]
        except (ValueError, KeyError, TypeError):
            return []
    else:
        given = [value for key, _, value in (line.partition("=") for line in text.splitlines())
                 if key.strip() == "dataset"]
    return [str(d).strip() for d in given if str(d).strip()]


def _read_config(root, path, out, capsys):
    _cli(["run", "--config", str(path), "--output-dir", str(out), "--quiet"], capsys,
         [path, root / "data", *_dataset_given(path)], _run_outputs_parse(out))


def _read_run(root, path, out, capsys):
    """``run --from-manifest`` (manifest.json only) and ``report`` in its three modes."""
    run = path.parent
    names = [run, root / "data", *_dataset_given(run / "manifest.json")]  # the run directory or a file in it
    if path.name == "manifest.json":
        _cli(["run", "--from-manifest", str(path), "--output-dir", str(out), "--quiet"], capsys,
             names, _run_outputs_parse(out))
    _cli(["report", str(run), str(root / "sage")], capsys, names, _table_parses(2, 4))
    _cli(["report", str(run), str(root / "cold"), "--mode", "fwt"], capsys, names, _table_parses(1, 1))
    _cli(["report", str(run), str(root / "sage"), "--mode", "open"], capsys, names, _table_parses(2, 4))


def _read_checkpoint(root, path, out, capsys):
    try:
        model = eg.load_checkpoint(path.parent)
    except EvographError as exc:
        assert str(exc).startswith(str(path.parent)), exc  # the error names the checkpoint's file
        return
    assert all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in model.layers)


# file (relative to the fixture's root) -> (reader, mutations)
FUZZ_FILES = {
    "run.cfg": (_read_config, ["truncate", "flip", "drop-key", "swap-type"]),
    "run/manifest.json": (_read_run, ["truncate", "flip", "drop-key", "swap-type"]),
    "run/summary.json": (_read_run, ["truncate", "flip", "drop-key", "swap-type"]),
    "run/model_seed0/manifest": (_read_checkpoint, ["truncate", "flip", "drop-key", "swap-type"]),
    "run/model_seed0/params.bin": (_read_checkpoint, ["truncate", "flip", "append"]),
}


@pytest.mark.parametrize(
    "name, mutation", [(name, m) for name, (_, mutations) in FUZZ_FILES.items() for m in mutations]
)
def test_mutated_file_fails_cleanly(runs, tmp_path, capsys, name, mutation):
    reader, _ = FUZZ_FILES[name]
    rng = random.Random(zlib.crc32(f"{name}:{mutation}".encode()))
    path = runs / name
    original = path.read_bytes()
    try:
        for _ in range(DRAWS):
            path.write_bytes(MUTATIONS[mutation](original, rng))
            reader(runs, path, tmp_path / "out", capsys)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
    finally:
        path.write_bytes(original)
