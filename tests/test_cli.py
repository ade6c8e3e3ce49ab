import csv
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sic_simplex import bloch, cli, sic_povm, state_simplex
from sic_simplex.cli import build_parser, main
from sic_simplex.sic_povm import (DEFAULT_TARGET_RESIDUAL, find_fiducial,
                                  fiducial_to_json, qubit_tetrahedron_fiducial,
                                  read_json)
from sic_simplex.state_simplex import geometry_report


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_state(path, d, key, value):
    path.write_text(json.dumps(cli._state_json(d, key, value)))
    return path


def _read_rho(path):
    d, key, rho = read_json(str(path), cli._state_fields)
    assert key == "rho"
    return rho


def test_geometry_json(tmp_path):
    out = tmp_path / "geom.json"
    assert main(["geometry", "--d", "3", "--out", str(out)]) == 0
    obj = _read_json(out)
    assert obj["m_pure"] == 5
    assert abs(obj["R_pure"] - 1.0 / np.sqrt(2.0)) < 1e-12
    assert len(obj["d_m"]) == 9


def test_geometry_csv_flags_inner_sphere(tmp_path):
    out = tmp_path / "geom.csv"
    assert main(["geometry", "--d", "2", "--format", "csv", "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "d,R_out,R_in,R_pure,m_pure,sum_p2_pure,pure_sphere_is_inner"
    fields = row.split(",")
    assert fields[0] == "2"
    assert fields[2] == fields[3]          # R_in == R_pure for d = 2
    assert fields[-1] == "True"


@pytest.mark.parametrize("d", range(2, 9))
def test_geometry_json_is_the_report(d, tmp_path):
    out = tmp_path / "geom.json"
    assert main(["geometry", "--d", str(d), "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(geometry_report(d), sort_keys=True,
                                         indent=2) + "\n"


def test_geometry_rejects_d1():
    assert main(["geometry", "--d", "1"]) != 0


def test_find_sic_converges_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["find-sic", "--d", "2", "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["find-sic", "--d", "2", "--seed", "1", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    obj = _read_json(out_a)
    assert obj["residual"] < 1e-10
    assert obj["converged"] is True
    assert obj["config"] == {"restarts": 10,
                             "target_residual": DEFAULT_TARGET_RESIDUAL}


def test_find_sic_defaults_are_the_search_defaults():
    args = build_parser().parse_args(["find-sic", "--d", "3"])
    search = inspect.signature(find_fiducial).parameters
    assert args.restarts == search["restarts"].default
    assert sorted(search) == ["d", "restarts", "seed"]
    # the convergence target is fixed, not a flag
    assert main(["find-sic", "--d", "3", "--target-residual", "1e-8"]) == 2


def test_find_sic_unconverged_exits_1_and_records_nothing(tmp_path,
                                                          monkeypatch):
    catalog = tmp_path / "cat.json"
    monkeypatch.setenv("SIC_SIMPLEX_CATALOG", str(catalog))
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    out = tmp_path / "f.json"
    assert main(["find-sic", "--d", "3", "--restarts", "2",
                 "--out", str(out)]) == 1
    assert _read_json(out)["converged"] is False
    assert not catalog.exists()


def test_find_sic_d3(tmp_path):
    out = tmp_path / "fid3.json"
    assert main(["find-sic", "--d", "3", "--seed", "1", "--out", str(out)]) == 0
    assert _read_json(out)["residual"] < 1e-10


def test_find_sic_without_out_writes_only_the_file_to_stdout(tmp_path,
                                                            capsys):
    # the summary goes to stderr, so stdout is a --fiducial file as it is
    assert main(["find-sic", "--d", "3", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["converged"] is True
    assert err.startswith("d=3 residual=") and "converged" in err
    fid = tmp_path / "f.json"
    fid.write_text(out)
    assert main(["verify", "--d", "3", "--samples", "10",
                 "--fiducial", str(fid)]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_verify_qubit_passes(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--d", "2", "--samples", "200", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    res = _read_json(out)[0]
    assert res["passed"] is True
    assert res["max_theorem_deviation"] < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_verify_geometry_fields_are_the_report(d, tmp_path, contexts):
    out = tmp_path / "verify.json"
    assert main(["verify", "--d", str(d), "--samples", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    res = _read_json(out)[0]
    rep = geometry_report(d)
    for key in ("d", "R_out", "R_in", "R_pure", "m_pure", "sum_p2_pure"):
        assert res[key] == rep[key]


def test_verify_csv_columns(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--d", "2", "--samples", "50", "--seed", "1",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "d,R_out,R_in,R_pure,m_pure,sum_p2_pure,max_theorem_deviation"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_refuses_non_finite_output(fmt, tmp_path, monkeypatch):
    # a NaN deviation exits 2 before the output file is opened
    monkeypatch.setattr(state_simplex, "verify_b_equals_q",
                        lambda ctx, samples, seed: float("nan"))
    out = tmp_path / f"verify.{fmt}"
    assert main(["verify", "--d", "2", "--samples", "10", "--format", fmt,
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_refuses_a_tolerance_it_cannot_judge(tol, tmp_path, capsys):
    # inf would pass any deviation, and nan, 0 or -1 would fail with no
    # check failed: each is bad input, named in one error line
    out = tmp_path / "verify.json"
    assert main(["verify", "--d", "2", "--samples", "10", "--tol", tol,
                 "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "--tol" in errors[0] and errors[0].endswith(f"got {tol}")


def test_verify_needs_dimension(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", "10", "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_refuses_d_with_all(tmp_path):
    # --all would otherwise sweep d = 2..5 and drop the --d it was given
    out = tmp_path / "verify.json"
    assert main(["verify", "--all", "--d", "7", "--samples", "10",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_refuses_corrupted_fiducial(tmp_path):
    # file claims a perfect residual but the vector's orbit is nowhere near
    # a SIC; the recomputed residual must trigger a refusal
    entry = fiducial_to_json(qubit_tetrahedron_fiducial())
    entry["psi"] = [[1.0, 0.0], [0.0, 0.0]]
    entry["residual"] = 1e-15
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entry))
    rc = main(["verify", "--d", "2", "--samples", "10",
               "--fiducial", str(bad)])
    assert rc != 0


def test_verify_refuses_nan_fiducial(tmp_path, contexts):
    # a NaN entry must not turn into a zero deviation and a pass
    entry = fiducial_to_json(contexts[3].sic.fiducial)
    entry["psi"][1][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(entry))
    rc = main(["verify", "--d", "3", "--samples", "10",
               "--fiducial", str(bad)])
    assert rc != 0


def test_verify_accepts_valid_fiducial_file(tmp_path):
    entry = fiducial_to_json(qubit_tetrahedron_fiducial())
    good = tmp_path / "good.json"
    good.write_text(json.dumps(entry))
    rc = main(["verify", "--d", "2", "--samples", "20", "--fiducial", str(good)])
    assert rc == 0


def test_convert_mixed_to_probabilities(tmp_path, contexts):
    state = _write_state(tmp_path / "state.json", 3, "rho", np.eye(3) / 3.0)
    out = tmp_path / "probs.json"
    assert main(["convert", "--to", "probabilities", "--in", str(state),
                 "--out", str(out)]) == 0
    obj = _read_json(out)
    assert obj["inside"] is True
    np.testing.assert_allclose(obj["probabilities"], 1.0 / 9.0, atol=1e-13)


def test_convert_probabilities_back_to_rho(tmp_path, contexts):
    probs = tmp_path / "probs.json"
    probs.write_text(json.dumps({"d": 3, "probabilities": [1.0 / 9.0] * 9}))
    out = tmp_path / "rho.json"
    assert main(["convert", "--to", "rho", "--in", str(probs),
                 "--out", str(out)]) == 0
    np.testing.assert_allclose(_read_rho(out), np.eye(3) / 3.0, atol=1e-12)


def test_convert_roundtrip_through_all_representations(tmp_path, contexts):
    rho = bloch.random_density_matrix(3, 5)
    cur = _write_state(tmp_path / "step0.json", 3, "rho", rho)
    for i, target in enumerate(["bloch", "point", "probabilities", "rho"]):
        nxt = tmp_path / f"step{i + 1}.json"
        assert main(["convert", "--to", target, "--in", str(cur),
                     "--out", str(nxt)]) == 0
        cur = nxt
    np.testing.assert_allclose(_read_rho(cur), rho, atol=1e-12)


def test_convert_rejects_unknown_payload(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "something": [1, 2]}))
    assert main(["convert", "--to", "rho", "--in", str(bad)]) != 0


def test_tomography_csv(tmp_path, contexts):
    state = _write_state(tmp_path / "state.json", 2, "rho",
                         bloch.random_density_matrix(2, 11))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(["tomography", "--in", str(state), "--shots", "5000",
                     "--seed", "3", "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header, row = out_a.read_text().strip().splitlines()
    assert header == "shots,trace_distance,seed"
    fields = row.split(",")
    assert fields[0] == "5000" and fields[2] == "3"
    assert 0.0 <= float(fields[1]) < 0.2


def test_tomography_without_out_writes_only_the_csv_to_stdout(tmp_path,
                                                              capsys):
    state = _write_state(tmp_path / "state.json", 2, "rho",
                         bloch.random_density_matrix(2, 11))
    assert main(["tomography", "--in", str(state), "--shots", "1000",
                 "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    header, *rows = csv.reader(io.StringIO(out))
    assert header == cli.TOMOGRAPHY_CSV_COLUMNS
    assert len(rows) == 1 and rows[0][0] == "1000" and rows[0][2] == "3"
    assert err.startswith("shots=1000 trace_distance=")


def test_tomography_shots_out_of_range_is_bad_input(tmp_path, capsys):
    # past the sampler's C long: exit 2 with one error line, no traceback
    state = _write_state(tmp_path / "state.json", 2, "rho",
                         bloch.random_density_matrix(2, 11))
    assert main(["tomography", "--in", str(state),
                 "--shots", "9223372036854775808"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "shots" in err and "9223372036854775808" in err


def test_tomography_rejects_probability_input(tmp_path):
    probs = tmp_path / "probs.json"
    probs.write_text(json.dumps({"d": 2, "probabilities": [0.25] * 4}))
    assert main(["tomography", "--in", str(probs), "--shots", "100"]) != 0


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sic_simplex.cli",
                           "geometry", "--d", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m_pure"] == 2


STATE_COMMANDS = [["convert", "--to", "point"], ["tomography", "--shots", "10"]]
# deeper than the JSON decoder's recursion allows
NESTED = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "text", ['{"d": null, "bloch": [0, 0, 0]}', '[1, 2]',
             '{"d": [3], "bloch": [0, 0, 0]}',
             '{"d": 3.7, "bloch": [0, 0, 0, 0, 0, 0, 0, 0]}'],
    ids=["d-null", "top-level-list", "d-list", "d-float"])
@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_malformed_dimension_is_bad_input(command, text, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(text)
    assert main(command + ["--in", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text", ['{"d": 3, "bloch": {"a": 1}}', '{"d": 3, "probabilities": {"x": 1}}',
             '{"d": 3, "rho": 5}',
             '{"d": 2, "rho": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], '
             '"bloch": [0, 0, 1]}',
             '{"d": 3, "bloch": [1' + '0' * 400 + ', 0, 0, 0, 0, 0, 0, 0]}',
             '{"d": 3, "bloch": ' + NESTED + '}',
             # numeric strings and bools are not JSON numbers
             '{"d": 2, "bloch": ["0", "0", "0"]}',
             '{"d": 2, "rho": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}'],
    ids=["bloch-object", "probabilities-object", "rho-scalar", "rho-and-bloch",
         "bloch-int-overflow", "bloch-nested-too-deeply", "bloch-strings",
         "rho-bool"])
@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_malformed_payload_is_bad_input(command, text, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(text)
    assert main(command + ["--in", str(state)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text", ['{"d": 4, "bloch": [1]}', '{"d": 4, "rho": [[1]]}',
             '{"d": 4, "something": [1]}',
             '{"d": 4, "bloch": [' + ", ".join(["NaN"] * 15) + ']}'],
    ids=["bloch-short", "rho-short", "no-representation", "bloch-nan"])
@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_refused_state_file_builds_no_context(command, text, tmp_path,
                                              monkeypatch):
    catalog = tmp_path / "cat.json"
    monkeypatch.setenv("SIC_SIMPLEX_CATALOG", str(catalog))
    searches = []

    def no_search(*args, **kwargs):
        searches.append(args)
        raise RuntimeError("a refused state file started a fiducial search")

    monkeypatch.setattr(sic_povm, "find_fiducial", no_search)
    state = tmp_path / "state.json"
    state.write_text(text)
    assert main(command + ["--in", str(state)]) == 2
    assert searches == []
    assert not catalog.exists()


@pytest.mark.parametrize(
    "d, psi", [("3", '{"a": 1}'), ("null", None), ("3.7", None), ('"3"', None),
               ("true", None), ("3", NESTED),
               # a valid fiducial, but for d = 2
               ("2", json.dumps(fiducial_to_json(
                   qubit_tetrahedron_fiducial())["psi"]))],
    ids=["psi-object", "d-null", "d-float", "d-string", "d-bool",
         "psi-nested-too-deeply", "other-dimension"])
def test_malformed_fiducial_file_is_bad_input(d, psi, tmp_path, capsys,
                                              contexts):
    # a valid d = 3 psi unless the case replaces it
    psi = psi or json.dumps(fiducial_to_json(contexts[3].sic.fiducial)["psi"])
    fid = tmp_path / "fid.json"
    fid.write_text(f'{{"d": {d}, "psi": {psi}}}')
    assert main(["verify", "--d", "3", "--samples", "10",
                 "--fiducial", str(fid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "convert"])
def test_fiducial_of_another_dimension_names_the_file(command, tmp_path,
                                                      capsys):
    fid = tmp_path / "fid2.json"
    fid.write_text(json.dumps(fiducial_to_json(qubit_tetrahedron_fiducial())))
    state = _write_state(tmp_path / "state.json", 3, "bloch", [0.0] * 8)
    argv = {"verify": ["verify", "--d", "3", "--samples", "10"],
            "convert": ["convert", "--to", "point", "--in", str(state)]}
    assert main(argv[command] + ["--fiducial", str(fid)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {fid}: ")
    assert "d=2" in err and "d=3" in err


def _assert_only_the_bad_file_is_named(bad, text, tmp_path, capsys):
    state = _write_state(tmp_path / "state.json", 2, "bloch", [0.0] * 3)
    fid = tmp_path / "fid.json"
    fid.write_text(json.dumps(fiducial_to_json(qubit_tetrahedron_fiducial())))
    broken = tmp_path / "bad.json"
    broken.write_bytes(text)
    files = {"--in": str(state), "--fiducial": str(fid)}
    files[bad] = str(broken)
    assert main(["convert", "--to", "point", "--in", files["--in"],
                 "--fiducial", files["--fiducial"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # the bad file, once, and not the other one
    assert err.count(str(broken)) == 1
    assert [p for p in files.values() if p in err] == [str(broken)]


@pytest.mark.parametrize("text", [b"not json", b"\xff{}"],
                         ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("bad", ["--in", "--fiducial"])
def test_undecodable_file_is_named_in_the_error(bad, text, tmp_path, capsys):
    _assert_only_the_bad_file_is_named(bad, text, tmp_path, capsys)


@pytest.mark.parametrize("bad", ["--in", "--fiducial"])
def test_refused_file_is_named_in_the_error(bad, tmp_path, capsys):
    # JSON that both a state file and a fiducial file refuse on "d"
    _assert_only_the_bad_file_is_named(
        bad, b'{"d": null, "bloch": [0, 0, 0], "psi": [[1, 0], [0, 0]]}',
        tmp_path, capsys)


def test_state_json_roundtrip(tmp_path):
    rho = bloch.random_density_matrix(3, 1)
    path = _write_state(tmp_path / "rho.json", 3, "rho", rho)
    np.testing.assert_allclose(_read_rho(path), rho, atol=1e-15)


def test_bloch_json_roundtrip(tmp_path, contexts):
    r = bloch.to_bloch(bloch.random_density_matrix(3, 2), contexts[3].basis)
    path = _write_state(tmp_path / "bloch.json", 3, "bloch", r)
    d, key, r2 = read_json(str(path), cli._state_fields)
    assert (d, key) == (3, "bloch")
    np.testing.assert_allclose(r2, r, atol=1e-15)


@pytest.mark.parametrize("key, length", [("bloch", 7), ("point", 9),
                                         ("probabilities", 8)])
def test_state_json_shape_validation(key, length, tmp_path):
    path = _write_state(tmp_path / "s.json", 3, key, [0.0] * length)
    with pytest.raises(ValueError):
        read_json(str(path), cli._state_fields)


def test_missing_input_file_is_an_error(tmp_path):
    assert main(["convert", "--to", "rho", "--in",
                 str(tmp_path / "nope.json")]) != 0


def test_overflowing_state_is_one_error_line_and_no_warning(tmp_path, capsys):
    # the recovered probabilities overflow on the way to their finiteness
    # gate; the gate's error is the whole report
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"d": 3, "bloch": [1e308] * 8}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["convert", "--to", "probabilities",
                     "--in", str(state)]) == 2
    assert caught == []
    assert (capsys.readouterr().err
            == "error: recovered probabilities are not finite\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["geometry", "--d", "abc"], "--d", "abc"),
    (["verify", "--d", "3", "--tol", "abc"], "--tol", "abc"),
    (["verify", "--d", "3", "--seed", "-1"], "--seed", "-1"),
    (["tomography", "--in", "state.json", "--seed", "-3"], "--seed", "-3"),
    (["find-sic", "--d", "3", "--seed", "-1"], "--seed", "-1"),
    (["verify", "--d", "3", "--samples", "0"], "--samples", "0"),
    (["find-sic", "--d", "3", "--restarts", "0"], "--restarts", "0"),
    (["tomography", "--in", "state.json", "--shots", "0"], "--shots", "0"),
    (["tomography", "--in", "state.json", "--shots", "-4"], "--shots", "-4"),
], ids=["d-abc", "tol-abc", "verify-seed", "tomography-seed",
        "find-sic-seed", "samples-0", "restarts-0", "shots-0", "shots-neg"])
def test_bad_flag_value_names_the_flag_and_the_value(argv, flag, value,
                                                     capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [error] = [line for line in captured.err.splitlines() if "error:" in line]
    assert f"error: argument {flag}: " in error
    assert error.endswith(f"got {value}")


# each child may map at most 1 GiB, so a command that starts building
# before it checks --d fails in the child, not on the host
LIMITED_MAIN = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
                "from sic_simplex.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS bounds a child's memory only on Linux")
@pytest.mark.parametrize("argv, label", [
    (["geometry", "--d", "100000"], "--d 100000"),
    (["geometry", "--d", "6553"], "--d 6553"),
    (["verify", "--d", "300", "--samples", "1"], "--d 300"),
    (["convert", "--to", "point", "--in", "big.json"], 'big.json: "d": 300'),
], ids=["geometry", "geometry-rlimit", "verify", "convert"])
def test_dimension_beyond_the_memory_budget_is_refused(argv, label,
                                                       tmp_path):
    # the maximally mixed state: a valid d = 300 state file
    (tmp_path / "big.json").write_text(
        json.dumps({"d": 300, "bloch": [0.0] * (300 ** 2 - 1)}))
    catalog = tmp_path / "catalog.json"
    src = pathlib.Path(cli.__file__).parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "SIC_SIMPLEX_CATALOG": str(catalog),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {label} needs about ")
    assert proc.stderr.endswith(" MiB budget\n")
    assert proc.stderr.count("\n") == 1
    assert not catalog.exists()
