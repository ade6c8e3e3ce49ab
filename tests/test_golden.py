"""Golden outputs: the files that `geometry` (json and csv), `verify` (json
and csv), `convert` (each --to target) and `tomography` write at d = 2..5,
run in-process through `cli.main` and compared with `tests/golden.json`.

Every command runs in one directory that holds a copy of the benchmark's
catalog `perfbench/fiducials.json`, which the commands only read, and one
state file per d, a mixed state drawn by `random_density_matrix(d, seed=d)`.
A command's record is its argv, its exit status and its output, decoded:
JSON as JSON, and CSV as rows of cells, each an int, a float or a string.
Integers, strings and booleans must match the golden exactly, and floats
within an absolute `TOL`, since BLAS kernels round differently between
hosts.

`tomography` samples its counts from p, so a roundoff change in p can flip
one count; that shows up as a change of about 1/shots (here 1e-3) in the
trace distance, not as roundoff.

A change that moves an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and commits it; `git diff --word-diff tests/golden.json` then shows each
changed value.
"""

import contextlib
import csv
import io
import json
import os
import pathlib
import shutil
import tempfile

import pytest

from sic_simplex import bloch, cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
CATALOG = pathlib.Path(__file__).parents[1] / "perfbench" / "fiducials.json"
DIMS = (2, 3, 4, 5)
TOL = 1e-12


def _commands() -> dict:
    """Each command's name and argv, without --out."""
    commands = {}
    for d in DIMS:
        for fmt in ("json", "csv"):
            commands[f"geometry-d{d}-{fmt}"] = [
                "geometry", "--d", str(d), "--format", fmt]
            commands[f"verify-d{d}-{fmt}"] = [
                "verify", "--d", str(d), "--samples", "100", "--seed", "7",
                "--format", fmt]
        for to in cli.STATE_KEYS:
            commands[f"convert-d{d}-{to}"] = [
                "convert", "--to", to, "--in", f"state{d}.json"]
        commands[f"tomography-d{d}"] = [
            "tomography", "--in", f"state{d}.json", "--shots", "1000",
            "--seed", "3"]
    return commands


COMMANDS = _commands()


def _prepare(root: pathlib.Path) -> None:
    """The catalog copy and the state files the commands read."""
    shutil.copyfile(CATALOG, root / "catalog.json")
    for d in DIMS:
        state = cli._state_json(d, "rho", bloch.random_density_matrix(d, d))
        (root / f"state{d}.json").write_text(json.dumps(state))


def _cell(text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _run(name: str) -> tuple[dict, str]:
    """One command run in the current directory: its record and stderr."""
    argv = COMMANDS[name]
    csv_out = "csv" in argv or argv[0] == "tomography"
    out = f"{name}.{'csv' if csv_out else 'json'}"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out])
    with open(out, newline="") as fh:
        output = ([[_cell(c) for c in row] for row in csv.reader(fh)]
                  if csv_out else json.load(fh))
    return {"argv": argv, "exit": code, "output": output}, err.getvalue()


def _mismatches(want, got, where="record"):
    """Each place where `got` differs from `want`: a float by more than
    `TOL`, anything else at all."""
    if isinstance(want, float) or isinstance(got, float):
        if not (type(want) is type(got) and abs(want - got) <= TOL):
            yield f"{where}: {got!r}, golden {want!r}"
    elif type(want) is dict and type(got) is dict and want.keys() == got.keys():
        for key in want:
            yield from _mismatches(want[key], got[key], f"{where}[{key!r}]")
    elif (type(want) is list and type(got) is list
          and len(want) == len(got)):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from _mismatches(w, g, f"{where}[{i}]")
    elif type(want) is not type(got) or want != got:
        yield f"{where}: {got!r}, golden {want!r}"


def _dump(records: dict) -> str:
    """One line per command, sorted, so a diff names the command."""
    lines = [f"{json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
             for name in sorted(records)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _prepare(root)
    return root


def test_goldens_cover_the_commands(goldens):
    assert sorted(goldens) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_its_golden(name, goldens, workdir, monkeypatch):
    catalog = workdir / "catalog.json"
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("SIC_SIMPLEX_CATALOG", str(catalog))
    record, err = _run(name)
    assert err == ""
    assert catalog.read_bytes() == CATALOG.read_bytes()
    assert list(_mismatches(goldens[name], record)) == []


def regenerate() -> None:
    """Write `GOLDEN` from a fresh run of every command."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _prepare(root)
        os.environ["SIC_SIMPLEX_CATALOG"] = str(root / "catalog.json")
        home = os.getcwd()
        os.chdir(root)
        try:
            records = {}
            for name in COMMANDS:
                records[name], err = _run(name)
                assert err == "", f"{name}: {err}"
        finally:
            os.chdir(home)
    GOLDEN.write_text(_dump(records))


if __name__ == "__main__":
    regenerate()
