import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from sic_simplex import bloch, cli
from sic_simplex.cli import build_parser, main
from sic_simplex.sic_povm import (DEFAULT_TARGET_RESIDUAL, find_fiducial,
                                  fiducial_to_json, qubit_tetrahedron_fiducial)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


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


def test_find_sic_defaults_are_the_search_defaults():
    args = build_parser().parse_args(["find-sic", "--d", "3"])
    search = inspect.signature(find_fiducial).parameters
    assert args.restarts == search["restarts"].default
    assert args.target_residual == search["target_residual"].default
    assert args.target_residual == DEFAULT_TARGET_RESIDUAL


def test_find_sic_d3(tmp_path):
    out = tmp_path / "fid3.json"
    assert main(["find-sic", "--d", "3", "--seed", "1", "--out", str(out)]) == 0
    assert _read_json(out)["residual"] < 1e-10


def test_verify_qubit_passes(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--d", "2", "--samples", "200", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    res = _read_json(out)[0]
    assert res["passed"] is True
    assert res["max_theorem_deviation"] < 1e-10


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
    monkeypatch.setattr(cli, "verify_b_equals_q",
                        lambda ctx, samples, seed: float("nan"))
    out = tmp_path / f"verify.{fmt}"
    assert main(["verify", "--d", "2", "--samples", "10", "--format", fmt,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_needs_dimension():
    assert main(["verify", "--samples", "10"]) != 0


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
    state = tmp_path / "state.json"
    state.write_text(json.dumps(bloch.state_to_json(np.eye(3) / 3.0)))
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
    rho = bloch.state_from_json(_read_json(out))
    np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-12)


def test_convert_roundtrip_through_all_representations(tmp_path, contexts):
    rho = bloch.random_density_matrix(3, 5)
    cur = tmp_path / "step0.json"
    cur.write_text(json.dumps(bloch.state_to_json(rho)))
    for i, target in enumerate(["bloch", "point", "probabilities", "rho"]):
        nxt = tmp_path / f"step{i + 1}.json"
        assert main(["convert", "--to", target, "--in", str(cur),
                     "--out", str(nxt)]) == 0
        cur = nxt
    np.testing.assert_allclose(bloch.state_from_json(_read_json(cur)), rho,
                               atol=1e-12)


def test_convert_rejects_unknown_payload(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "something": [1, 2]}))
    assert main(["convert", "--to", "rho", "--in", str(bad)]) != 0


def test_tomography_csv(tmp_path, contexts):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(bloch.state_to_json(
        bloch.random_density_matrix(2, 11))))
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


def test_missing_input_file_is_an_error(tmp_path):
    assert main(["convert", "--to", "rho", "--in",
                 str(tmp_path / "nope.json")]) != 0
