"""An input harness for `cli.main`: valid state and --fiducial files made by
the package's own samplers at d = 2..4, mutated, under flags set to valid
values or to 0, -1 and 2**63, with the catalog a copy of the benchmark's
warm fixture.  Whatever the input, a run

- exits 0, 1 or 2, with no traceback, no Python warning and no WARNING
  record of the "sic_simplex" logger;
- on exit 2 prints exactly one `error:` line, which names a flag or a file
  the example made bad, and leaves the catalog as it was;
- on exit 0 leaves an output that the package's own reader takes back.
"""

import contextlib
import csv
import functools
import io
import json
import logging
import os
import pathlib
import shutil
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_simplex import bloch, cli
from sic_simplex.cli import main
from sic_simplex.sic_povm import (fiducial_from_json, fiducial_to_json,
                                  qubit_tetrahedron_fiducial, read_json)
from sic_simplex.state_simplex import (build_context, probabilities_to_point,
                                       state_to_probabilities)

FIXTURE = pathlib.Path(__file__).parents[1] / "perfbench" / "fiducials.json"
DIMS = (2, 3, 4)
BIG = 2 ** 63


@functools.cache
def _context(d):
    # the fiducial the commands take: builtin for d = 2, else the fixture's
    fid = (qubit_tetrahedron_fiducial() if d == 2 else
           fiducial_from_json(json.loads(FIXTURE.read_text())[str(d)]))
    return build_context(d, fiducial=fid)


def _state_value(ctx, key, seed, pure):
    draw = bloch.random_pure_state if pure else bloch.random_density_matrix
    rho = draw(ctx.d, seed)
    if key == "rho":
        return rho
    p = state_to_probabilities(rho, ctx)
    return p if key == "probabilities" else probabilities_to_point(p, ctx)


# mutations of a file's decoded object, each a function of (obj, key, draw)
# that changes obj in place
def _swap_type(obj, key, draw):
    field = draw(st.sampled_from(["d", key]))
    obj[field] = draw(st.sampled_from([None, True, "3", 3.5, [], {}, "x",
                                       10 ** 400, -3, BIG]))


def _non_finite(obj, key, draw):
    value = np.array(obj[key], dtype=float)
    value.flat[draw(st.integers(0, value.size - 1))] = draw(st.sampled_from(
        [np.nan, np.inf, -np.inf, 1e308, -1e308]))
    obj[key] = value.tolist()


def _huge(obj, key, draw):
    scale = draw(st.sampled_from([1e308, 1e200, -1e154]))
    obj[key] = (np.array(obj[key], dtype=float) * scale).tolist()


def _reshape(obj, key, draw):
    value = obj[key]
    obj[key] = draw(st.sampled_from([value[:-1], value + value[:1], [value],
                                     np.ravel(value).tolist(), []]))


def _retag(obj, key, draw):
    # another dimension, or a second representation beside the first
    if draw(st.booleans()):
        obj["d"] = draw(st.sampled_from([d for d in DIMS if d != obj["d"]]))
    else:
        obj[draw(st.sampled_from(cli.STATE_KEYS + ("psi",)))] = obj[key]


OBJECT_MUTATIONS = [_swap_type, _non_finite, _huge, _reshape, _retag]


def _encode(obj, key, draw):
    """The file's bytes: the JSON text, possibly deep-nested, or damaged as
    bytes (a BOM, a non-UTF-8 byte, UTF-16, a cut)."""
    text = json.dumps(obj)
    nested = draw(st.integers(0, 5)) == 0
    if nested:
        depth = draw(st.sampled_from([70, 900, 100_000]))
        text = json.dumps({**obj, key: "@"}).replace(
            '"@"', "[" * depth + "0" + "]" * depth)
    data = text.encode()
    damage = draw(st.sampled_from([None] * 4 + ["bom", "byte", "utf16",
                                                "cut", "empty"]))
    if damage == "bom":
        data = b"\xef\xbb\xbf" + data
    elif damage == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif damage == "utf16":
        data = text.encode("utf-16")
    elif damage == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif damage == "empty":
        data = b""
    return data, nested or damage is not None


def _write_input(path, obj, key, draw):
    """Write `obj`, perhaps mutated, to `path`; whether it was mutated."""
    mutation = draw(st.sampled_from([None] * 5 + OBJECT_MUTATIONS))
    if mutation:
        mutation(obj, key, draw)
    data, damaged = _encode(obj, key, draw)
    path.write_bytes(data)
    return mutation is not None or damaged


# each flag's rule; --d is drawn only as the example's d or as a bad value
RULES = {"--seed": lambda v: v >= 0, "--shots": lambda v: 1 <= v < BIG,
         "--tol": lambda v: v > 0, "--d": lambda v: 2 <= v <= 4,
         "--samples": lambda v: v >= 1, "--restarts": lambda v: v >= 1}


def _flag(draw, name, valid, culprits, bad=(0, -1, BIG)):
    """A flag and its value: `valid` drawn, or one of `bad`; the flag is a
    culprit when the value breaks its rule."""
    value = draw(st.sampled_from([None] * 5 + list(bad)))
    if value is None:
        value = draw(valid)
    if not RULES[name](value):
        culprits.append(name)
    return [name, str(value)]


@st.composite
def runs(draw, tmp):
    """(argv, the flags and files made bad, the --out path)."""
    command = draw(st.sampled_from(["convert", "tomography", "verify",
                                    "geometry", "find-sic"]))
    d = draw(st.sampled_from(DIMS))
    ctx = _context(d)
    culprits = []
    out = tmp / ("out.csv" if command == "tomography" else "out.json")
    argv = [command]
    seeds = st.integers(0, 3)
    if command in ("convert", "tomography"):
        key = draw(st.sampled_from(("rho", "bloch") if command == "tomography"
                                   else cli.STATE_KEYS))
        value = _state_value(ctx, key, draw(seeds), draw(st.booleans()))
        state = tmp / "state.json"
        if _write_input(state, cli._state_json(d, key, value), key, draw):
            culprits.append(str(state))
        argv += ["--in", str(state)]
        if command == "convert":
            argv += ["--to", draw(st.sampled_from(cli.STATE_KEYS))]
        else:
            argv += _flag(draw, "--shots", st.integers(1, 1000), culprits)
        argv += _flag(draw, "--seed", seeds, culprits)
    elif command == "verify":
        argv += _flag(draw, "--d", st.just(d), culprits)
        # 2**63 samples are a valid request that never ends, so not drawn
        argv += _flag(draw, "--samples", st.sampled_from([1, 7, 30]),
                      culprits, bad=(0, -1))
        argv += _flag(draw, "--seed", seeds, culprits)
        argv += _flag(draw, "--tol", st.just(1e-10), culprits)
    elif command == "geometry":
        argv += _flag(draw, "--d", st.just(d), culprits)
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
        if argv[-1] == "csv":
            out = tmp / "out.csv"
    else:
        argv += _flag(draw, "--d", st.just(d), culprits)
        argv += _flag(draw, "--seed", seeds, culprits)
        argv += _flag(draw, "--restarts", st.integers(1, 3), culprits)
    if command in ("convert", "tomography", "verify") and draw(st.booleans()):
        fid = tmp / "fiducial.json"
        obj = fiducial_to_json(ctx.sic.fiducial)
        if _write_input(fid, obj, "psi", draw):
            culprits.append(str(fid))
        argv += ["--fiducial", str(fid)]
    argv += ["--out", str(out)]
    return argv, culprits, out


def _read_back(command, argv, out):
    """The output of an exit-0 run, read by the package's own reader."""
    if command == "convert":
        _, key, value = read_json(str(out), cli._state_fields)
        assert key == argv[argv.index("--to") + 1]
        assert np.isfinite(value).all()
    elif command == "find-sic":
        read_json(str(out), fiducial_from_json)
    elif out.suffix == ".json":
        read_json(str(out), lambda obj: obj)
    else:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns = {"tomography": cli.TOMOGRAPHY_CSV_COLUMNS,
                   "geometry": cli.GEOMETRY_CSV_COLUMNS}[command]
        assert rows and list(rows[0]) == columns


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_main_survives_mutated_inputs(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        catalog = tmp / "catalog.json"
        shutil.copyfile(FIXTURE, catalog)
        before = catalog.read_bytes()
        argv, culprits, out = data.draw(runs(tmp))
        stdout, stderr, handler = io.StringIO(), io.StringIO(), _Records()
        logger = logging.getLogger("sic_simplex")
        logger.addHandler(handler)
        try:
            with mock.patch.dict(os.environ,
                                 {"SIC_SIMPLEX_CATALOG": str(catalog)}), \
                    warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            logger.removeHandler(handler)
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "Warning" not in err
        assert caught == [] and handler.records == []
        if code == 2:
            [line] = [x for x in err.splitlines() if "error:" in x]
            # numbers as Python prints them, never as numpy's repr
            assert "np." not in line
            assert [c for c in culprits if c in line], line
            assert catalog.read_bytes() == before
        if code == 0:
            _read_back(argv[0], argv, out)


# defects the harness found, each pinned on its own


def test_shots_beyond_the_sampler_name_the_flag_first(tmp_path, capsys):
    # refused by the flag's rule before the (here missing) state file is read
    assert main(["tomography", "--in", str(tmp_path / "absent.json"),
                 "--shots", str(BIG)]) == 2
    assert capsys.readouterr().err == (
        f"error: --shots must be in [1, 2**63 - 1], got {BIG}\n")


def test_fiducial_norm_error_prints_a_plain_number(tmp_path, capsys):
    fid = tmp_path / "fid.json"
    fid.write_text(json.dumps({"d": 2, "psi": [[2.0, 0.0], [0.0, 0.0]]}))
    assert main(["verify", "--d", "2", "--samples", "1",
                 "--fiducial", str(fid)]) == 2
    assert capsys.readouterr().err == (
        f"error: {fid}: fiducial vector norm 2.0 != 1\n")
