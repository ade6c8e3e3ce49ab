import cmath
import dataclasses
import functools
import hashlib
import json
import logging
import math
import pathlib
import unittest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sic_simplex import sic_povm
from sic_simplex.bloch import is_pure
from sic_simplex.cli import main
from sic_simplex.sic_povm import (Fiducial, displacement_operators, wh_orbit,
                                  sic_residual, find_fiducial, build_sic,
                                  get_fiducial, qubit_tetrahedron_fiducial,
                                  fiducial_to_json, fiducial_from_json,
                                  load_catalog, save_catalog,
                                  record_fiducial)
from sic_simplex.state_simplex import build_context
from sic_simplex.su_basis import build_su_basis, structure_constants


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_displacements_are_unitary(d):
    ops = displacement_operators(d)
    assert ops.shape == (d * d, d, d)
    for op in ops:
        assert np.max(np.abs(op @ op.conj().T - np.eye(d))) < 1e-12


def test_displacement_indexing():
    d = 3
    ops = displacement_operators(d)
    omega = np.exp(2j * np.pi / d)
    np.testing.assert_allclose(ops[0], np.eye(d), atol=1e-15)
    np.testing.assert_allclose(ops[1], np.diag(omega ** np.arange(d)),
                               atol=1e-14)                    # i = 0*d + 1 -> Z
    np.testing.assert_allclose(ops[d], np.roll(np.eye(d), 1, axis=0),
                               atol=1e-15)                    # i = 1*d + 0 -> X


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 16, 28, 40])
def test_displacements_follow_the_index_rule(d):
    # D_{k,l}|j> = tau^{kl} omega^{lj} |j + k>, built entry by entry with
    # cmath from the exponents reduced mod the orders of tau and omega
    ops = displacement_operators(d)
    ref = np.zeros((d * d, d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            tau_kl = (-1) ** (k * l) * cmath.exp(
                1j * math.pi * (k * l % (2 * d)) / d)
            for j in range(d):
                ref[k * d + l, (j + k) % d, j] = tau_kl * cmath.exp(
                    2j * math.pi * (l * j % d) / d)
    assert np.max(np.abs(ops - ref)) <= 1e-14
    assert np.all(ops[ref == 0] == 0)


def test_orbit_vectors_are_unit_norm():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        orbit = wh_orbit(psi)
        np.testing.assert_allclose(np.linalg.norm(orbit, axis=1), 1.0,
                                   atol=1e-12)


def test_computational_basis_orbit_is_not_a_sic():
    # D_{0,1}|0> = Z|0> = |0>: the overlap 1 sits 2/3 away from 1/3
    orbit = wh_orbit(np.array([1.0, 0.0], dtype=complex))
    gram2 = np.abs(orbit.conj() @ orbit.T) ** 2
    off = gram2[~np.eye(4, dtype=bool)]
    assert np.max(off) > 0.999
    assert abs(sic_residual(orbit) - 2.0 / 3.0) < 1e-12


def test_tetrahedron_fiducial_is_exact():
    fid = qubit_tetrahedron_fiducial()
    assert fid.residual < 1e-12
    orbit = wh_orbit(fid.psi)
    gram2 = np.abs(orbit.conj() @ orbit.T) ** 2
    off = gram2[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 1.0 / 3.0, atol=1e-12)


def test_tetrahedron_bloch_directions():
    # e_i . e_j = (4 delta_ij - 1)/9: |e_i|^2 = 1/3, cross products -1/9
    basis = build_su_basis(2)
    sic = build_sic(qubit_tetrahedron_fiducial(), basis)
    gram = sic.bloch_dirs @ sic.bloch_dirs.T
    expected = (4.0 * np.eye(4) - 1.0) / 9.0
    assert np.max(np.abs(gram - expected)) < 1e-12


def test_tetrahedron_effect_overlaps():
    basis = build_su_basis(2)
    sic = build_sic(qubit_tetrahedron_fiducial(), basis)
    for i in range(4):
        for j in range(4):
            overlap = np.trace(sic.effects[i] @ sic.effects[j]).real
            assert abs(overlap - (2.0 * (i == j) + 1.0) / 12.0) < 1e-12


def test_residual_and_potential_vanish_together():
    exact = wh_orbit(qubit_tetrahedron_fiducial().psi)
    assert sic_residual(exact) < 1e-12
    bad = wh_orbit(np.array([1.0, 0.0], dtype=complex))
    assert sic_residual(bad) > 0.0


def test_search_matches_tetrahedron_for_qubits():
    fid = find_fiducial(2, seed=1)
    assert fid.converged
    assert fid.residual < 1e-10


def test_search_d3():
    fid = find_fiducial(3, seed=1)
    assert fid.converged
    assert fid.residual < 1e-10


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_search_higher_dimensions(d):
    fid = find_fiducial(d, seed=1)
    assert fid.converged
    assert fid.residual < 1e-8


def test_search_determinism():
    a = find_fiducial(3, seed=42, restarts=4)
    b = find_fiducial(3, seed=42, restarts=4)
    np.testing.assert_array_equal(a.psi, b.psi)
    assert a.residual == b.residual


def test_search_reports_failure_without_raising(monkeypatch):
    # machine precision cannot reach 1e-20, so this must come back
    # unconverged but still carry the best fiducial found
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    fid = find_fiducial(3, seed=0, restarts=2)
    assert fid.converged is False
    assert fid.residual < 1e-8
    assert fid.psi is not None


def test_build_sic_refuses_bad_fiducial():
    basis = build_su_basis(2)
    bad = Fiducial(np.array([1.0, 0.0], dtype=complex))
    assert bad.residual > 0.5
    with pytest.raises(ValueError):
        build_sic(bad, basis)


def test_build_sic_refuses_nan_residual():
    psi = qubit_tetrahedron_fiducial().psi.copy()
    psi[1] = np.nan
    with pytest.raises(ValueError):
        build_sic(Fiducial(psi=psi), build_su_basis(2))


def _tetrahedron_at_residual(residual):
    """The exact d = 2 fiducial moved along a fixed direction until its
    residual is `residual`, within 10%: the residual is linear in the
    step, about 2.05 per unit."""
    psi = qubit_tetrahedron_fiducial().psi + residual / 2.05 * np.array(
        [1.0, -1.0j])
    fid = Fiducial(psi=psi / np.linalg.norm(psi))
    assert abs(fid.residual / residual - 1.0) < 0.1
    return fid


@pytest.mark.parametrize("residual, converged", [(5e-11, True),
                                                 (2e-10, False)])
def test_convergence_target_sits_at_1e_10(residual, converged):
    # a literal, so a changed target fails here
    assert _tetrahedron_at_residual(residual).converged is converged


@pytest.mark.parametrize("residual, built", [(5e-7, True), (2e-6, False)])
def test_build_sic_bound_sits_at_1e_6(residual, built):
    fid = _tetrahedron_at_residual(residual)
    if built:
        assert build_sic(fid, build_su_basis(2)).effects.shape == (4, 2, 2)
    else:
        with pytest.raises(ValueError, match="exceeds 1.0e-06"):
            build_sic(fid, build_su_basis(2))


def test_fiducial_is_frozen_and_read_only():
    psi = qubit_tetrahedron_fiducial().psi.copy()
    fid = Fiducial(psi=psi, source="builtin")
    with pytest.raises(ValueError):
        fid.psi[0] = 0.0
    with pytest.raises(ValueError):
        fid.orbit[0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fid.converged = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        fid.psi = psi
    # the caller's array stays writable, and writing into it leaves the
    # fiducial's copy as it was
    psi[0] = 0.0
    np.testing.assert_array_equal(fid.psi, qubit_tetrahedron_fiducial().psi)
    assert fid.residual < 1e-12


def test_build_sic_dimension_mismatch():
    with pytest.raises(ValueError):
        build_sic(qubit_tetrahedron_fiducial(), build_su_basis(3))


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 5), d_fid=st.integers(2, 5))
def test_build_sic_refuses_a_fiducial_of_another_dimension(d, d_fid,
                                                           contexts):
    # a true SIC fiducial, so only the dimension check can refuse it
    assume(d_fid != d)
    with pytest.raises(ValueError, match="dimension"):
        build_sic(contexts[d_fid].sic.fiducial, contexts[d].basis)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sic_invariants(d, contexts):
    sic = contexts[d].sic
    total = sic.effects.sum(axis=0)
    assert np.max(np.abs(total - np.eye(d))) < 1e-10

    overlaps = np.einsum('aij,bji->ab', sic.effects, sic.effects).real
    expected = (d * np.eye(d * d) + 1.0) / (d * d * (d + 1.0))
    assert np.max(np.abs(overlaps - expected)) < 1e-9

    gram = sic.bloch_dirs @ sic.bloch_dirs.T
    expected_gram = (d * d * np.eye(d * d) - 1.0) / (d + 1.0) ** 2
    assert np.max(np.abs(gram - expected_gram)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rescaled_effects_are_pure_projectors(d, contexts):
    ctx = contexts[d]
    for i, effect in enumerate(ctx.sic.effects):
        vals = np.sort(np.linalg.eigvalsh(d * effect))
        assert abs(vals[-1] - 1.0) < 1e-10
        assert np.max(np.abs(vals[:-1])) < 1e-10
        assert is_pure(ctx.sic.bloch_dirs[i], ctx.sc)


def _frame_errors(sic, d):
    """Worst Gram and zero-sum errors of the context frame t_i = (d+1) e_i
    against t_i . t_j = (n+1) delta_ij - 1 with n = d^2 - 1."""
    t = (d + 1.0) * sic.bloch_dirs
    gram_err = np.max(np.abs(t @ t.T - (d * d * np.eye(d * d) - 1.0)))
    return gram_err, np.max(np.abs(t.sum(axis=0)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_scaled_directions_form_simplex_frame(d, contexts):
    # (d+1) e_i must satisfy the standard Gram relation with n = d^2 - 1
    gram_err, sum_err = _frame_errors(contexts[d].sic, d)
    assert gram_err < 1e-8 and sum_err < 1e-8
    if d < 3:
        return
    # exactly: t_i . t_j = -1 + d(d+1)(|<psi_i|psi_j>|^2 - 1/(d+1)), so the
    # Gram error is d(d+1) times the residual, and any orbit sums to zero
    psi = contexts[d].sic.fiducial.psi
    rng = np.random.default_rng(d)
    direction = rng.normal(size=d) + 1j * rng.normal(size=d)

    def moved(step):
        v = psi + step * direction
        return Fiducial(psi=v / np.linalg.norm(v))
    for target in (1e-11, 1e-9):
        # the residual is linear in a small step: one probe sizes the step
        fid = moved(target ** 2 / moved(target).residual)
        assert 0.5 * target < fid.residual < 2.0 * target
        gram_err, sum_err = _frame_errors(
            build_sic(fid, contexts[d].basis), d)
        assert abs(gram_err / (d * (d + 1) * fid.residual) - 1.0) <= 1e-3
        assert sum_err <= 1e-13


def test_fiducial_json_roundtrip():
    fid = find_fiducial(3, seed=5, restarts=2)
    again = fiducial_from_json(fiducial_to_json(fid))
    np.testing.assert_array_equal(again.psi, fid.psi)
    assert again.residual == fid.residual
    assert again.seed == fid.seed


def test_fiducial_json_rejects_unnormalized():
    obj = fiducial_to_json(qubit_tetrahedron_fiducial())
    obj["psi"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError):
        fiducial_from_json(obj)


def test_fiducial_json_rejects_nan_entry():
    obj = fiducial_to_json(qubit_tetrahedron_fiducial())
    obj["psi"][1][0] = float("nan")
    with pytest.raises(ValueError):
        fiducial_from_json(obj)


def test_fiducial_json_keeps_converged():
    # written for readers of the file, but read back off "psi" alone
    fid = find_fiducial(3, seed=5, restarts=2)
    obj = fiducial_to_json(fid)
    assert obj["converged"] is True
    assert fiducial_from_json(obj).converged is True
    del obj["converged"]
    assert fiducial_from_json(obj).converged is True


def test_failed_catalog_write_keeps_previous_file(tmp_path):
    path = tmp_path / "cat.json"
    save_catalog({"2": fiducial_to_json(qubit_tetrahedron_fiducial())},
                 str(path))
    before = path.read_bytes()
    good = find_fiducial(3, seed=5, restarts=2)
    # an unserializable config makes the dump fail once the temporary file
    # is open
    bad = Fiducial(psi=np.ones(4) / 2.0, config={"x": object()})
    with pytest.raises(TypeError):
        save_catalog({"3": fiducial_to_json(good),
                      "4": fiducial_to_json(bad)}, str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cat.json"]


def test_record_fiducial_only_keeps_converged(tmp_path, monkeypatch):
    path = str(tmp_path / "cat.json")
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    fid = find_fiducial(3, seed=0, restarts=2)
    record_fiducial(fid, path)
    assert load_catalog(path) == {}
    monkeypatch.undo()
    assert fid.converged
    record_fiducial(fid, path)
    assert load_catalog(path)["3"]["converged"] is True


def test_record_fiducial_refuses_what_a_lookup_would_refuse(tmp_path, caplog):
    # the entry claims convergence, which is not read: the vector's own
    # residual refuses it, silently, as the lookup does
    path = tmp_path / "cat.json"
    fid = fiducial_from_json(_non_sic_entry())
    with caplog.at_level(logging.DEBUG, logger="sic_simplex"):
        record_fiducial(fid, str(path))
    assert not path.exists()
    assert not caplog.records


def test_catalog_roundtrip(tmp_path):
    path = str(tmp_path / "cat.json")
    fid = find_fiducial(3, seed=5, restarts=2)
    save_catalog({"3": fiducial_to_json(fid)}, path)
    loaded = load_catalog(path)
    assert loaded == {"3": fiducial_to_json(fid)}
    np.testing.assert_array_equal(fiducial_from_json(loaded["3"]).psi, fid.psi)
    assert load_catalog(str(tmp_path / "missing.json")) == {}


def test_catalog_file_is_one_sorted_compact_dump(tmp_path, contexts):
    path = tmp_path / "cat.json"
    catalog = {str(d): fiducial_to_json(contexts[d].sic.fiducial)
               for d in (5, 2, 3)}
    save_catalog(catalog, str(path))
    assert path.read_bytes() == (json.dumps(catalog, sort_keys=True)
                                 + "\n").encode()


def test_indented_catalog_loads_and_is_rewritten_compact(tmp_path,
                                                        monkeypatch):
    # the committed fixture is an indented catalog, as older versions wrote
    fixture = pathlib.Path(__file__).parents[1] / "perfbench" / "fiducials.json"
    stored = json.loads(fixture.read_text())
    assert fixture.read_text().count("\n") > len(stored)
    path = tmp_path / "cat.json"
    path.write_text(fixture.read_text())
    monkeypatch.setattr(sic_povm, "find_fiducial", _no_search)
    fid = get_fiducial(5, catalog_path=str(path))
    assert fid.source == "search"  # the provenance the entry stored
    np.testing.assert_array_equal(fid.psi,
                                  fiducial_from_json(stored["5"]).psi)
    record_fiducial(qubit_tetrahedron_fiducial(), str(path))
    rewritten = json.loads(path.read_text())
    assert path.read_text().count("\n") == 1
    assert rewritten == {**stored, "2": fiducial_to_json(
        qubit_tetrahedron_fiducial())}


def test_get_fiducial_uses_builtin_for_qubits(tmp_path):
    fid = get_fiducial(2, catalog_path=str(tmp_path / "cat.json"))
    assert fid.source == "builtin"


def test_get_fiducial_caches_searches(tmp_path):
    path = str(tmp_path / "cat.json")
    first = get_fiducial(3, seed=3, catalog_path=path)
    assert first.source == "search"
    with open(path) as fh:
        stored = json.load(fh)
    assert "3" in stored
    second = get_fiducial(3, seed=999, catalog_path=path)  # seed ignored: cached
    np.testing.assert_array_equal(second.psi, first.psi)


def test_get_fiducial_ignores_corrupt_catalog(tmp_path):
    path = str(tmp_path / "cat.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    fid = get_fiducial(3, seed=1, catalog_path=path)
    assert fid.residual < 1e-10


def test_displacement_table_is_built_once_and_read_only():
    ops = displacement_operators(4)
    assert displacement_operators(4) is ops
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 0.0


def test_search_keeps_first_restart_when_every_residual_is_nan(monkeypatch):
    monkeypatch.setattr(sic_povm, "_polish",
                        lambda psi:
                        (np.full_like(psi, np.nan), 0, np.nan, "no_decrease"))
    fid = find_fiducial(3, seed=0, restarts=2)
    assert fid.converged is False
    assert np.isnan(fid.residual)
    with pytest.raises(ValueError):
        build_sic(fid, build_su_basis(3))
    # the NaN residual is refused on output rather than crashing
    assert main(["find-sic", "--d", "3", "--restarts", "2"]) == 2


def _non_sic_entry():
    # claims a perfect residual, but Z|0> = |0> puts an overlap 3/4 off 1/4
    return {"d": 3, "psi": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "residual": 0.0, "source": "search", "converged": True}


def test_stored_converged_is_never_trusted(tmp_path, monkeypatch, caplog):
    assert fiducial_from_json(_non_sic_entry()).converged is False
    # a true fiducial that claims it did not converge is a silent hit
    fixture = pathlib.Path(__file__).parents[1] / "perfbench" / "fiducials.json"
    entry = json.loads(fixture.read_text())["3"]
    entry["converged"] = False
    assert fiducial_from_json(entry).converged is True
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"3": entry}))
    monkeypatch.setattr(sic_povm, "find_fiducial", _no_search)
    with caplog.at_level(logging.DEBUG, logger="sic_simplex"):
        fid = get_fiducial(3, catalog_path=str(path))
    assert fid.converged
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "hit" in caplog.records[0].getMessage()


def test_stored_residual_is_never_trusted(tmp_path):
    entry = _non_sic_entry()
    assert fiducial_from_json(entry).residual > 0.1
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"3": entry}))
    fid = get_fiducial(3, seed=1, catalog_path=str(path))
    assert fid.source == "search"
    assert fid.residual < 1e-10
    single = tmp_path / "fid.json"
    single.write_text(json.dumps(entry))
    assert main(["verify", "--d", "3", "--samples", "10",
                 "--fiducial", str(single)]) != 0


def test_get_fiducial_logs_refused_entry(tmp_path, caplog):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"3": _non_sic_entry()}))
    caplog.set_level(logging.DEBUG, logger="sic_simplex")
    get_fiducial(3, seed=1, catalog_path=str(path))
    [refused] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert "d=3" in refused.getMessage()
    assert "7.500e-01" in refused.getMessage()
    caplog.clear()
    get_fiducial(3, seed=1, catalog_path=str(path))  # the search was stored
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "hit" in caplog.records[0].getMessage()


def test_get_fiducial_logs_corrupt_catalog(tmp_path, caplog):
    path = tmp_path / "cat.json"
    path.write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        get_fiducial(3, seed=1, catalog_path=str(path))
    [record] = [r for r in caplog.records if "unreadable" in r.getMessage()]
    assert record.levelno == logging.WARNING
    # named once, though the decode error names it as well
    assert record.getMessage().count(str(path)) == 1


def test_record_fiducial_logs_failed_write(tmp_path, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / "cat.json"  # its directory is a regular file
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        record_fiducial(qubit_tetrahedron_fiducial(), str(path))
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert str(path) in record.getMessage()


def _unit_vector_entry(d, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return {"d": d, "psi": [[float(z.real), float(z.imag)] for z in psi]}


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1), st.data())
def test_fiducial_json_rejects_nan_at_any_index(d, seed, data):
    obj = _unit_vector_entry(d, seed)
    k, part = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, 1))
    obj["psi"][k][part] = float("nan")
    with pytest.raises(ValueError):
        fiducial_from_json(obj)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1), st.data(),
       st.floats(-2.0, 2.0))
def test_fiducial_json_rejects_unnormalizing_entry(d, seed, data, value):
    obj = _unit_vector_entry(d, seed)
    k, part = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, 1))
    obj["psi"][k][part] = value
    assume(abs(np.linalg.norm(obj["psi"]) - 1.0) >= 1e-9)
    with pytest.raises(ValueError):
        fiducial_from_json(obj)


@pytest.mark.parametrize("field, value, reason", [
    ("d", 3.7, "float 3.7"), ("d", "3", "str '3'"), ("d", True, "bool"),
    ("d", None, "NoneType"), ("d", 1, "int 1"),
    ("psi", {"a": 1}, "not an array of numbers"),
    ("psi", [[10 ** 400, 0]] * 3, "not an array of numbers"),
    # numeric strings and bools are not JSON numbers; the bool one is a
    # unit vector, so only the number rule can refuse it
    ("psi", [[str(x) for x in z] for z in _unit_vector_entry(3, 0)["psi"]],
     "not an array of numbers"),
    ("psi", [[True, 0], [0, 0], [0, 0]], "not an array of numbers")],
    ids=["d-float", "d-string", "d-bool", "d-null", "d-below-2",
         "psi-object", "psi-int-overflow", "psi-strings", "psi-bool"])
def test_fiducial_json_refuses_malformed_field(field, value, reason):
    # the state-file rule: "d" is an int >= 2 and not a bool
    obj = {**_unit_vector_entry(3, 0), field: value}
    with pytest.raises(ValueError, match=reason):
        fiducial_from_json(obj)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(sic_povm, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sic_povm, name, counted)
    return calls


@pytest.mark.parametrize("d", [5, 6, 7])
def test_search_stops_at_the_roundoff_floor(d, monkeypatch):
    # ten restarts of 60 Gauss-Newton steps each would take 600 Jacobians
    calls = _count_calls(monkeypatch, "_jacobian")
    fid = find_fiducial(d, seed=1)
    assert fid.converged
    assert len(calls) < 60


@pytest.mark.parametrize("d", range(2, 9))
def test_deviations_and_jacobian_match_einsum(d):
    # the matrix-product forms against the einsum formulas they replaced
    disp = displacement_operators(d)[1:]
    target = 1.0 / (d + 1.0)
    rng = np.random.default_rng(d)
    for _ in range(3):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        ref_d_psi = np.einsum('aij,j->ai', disp, psi)
        ref_c = ref_d_psi @ psi.conj()
        ddag_psi = np.einsum('aji,j->ai', disp.conj(), psi)
        h = ref_c.conj()[:, None] * ref_d_psi + ref_c[:, None] * ddag_psi
        # columns interleave (Re psi_j, Im psi_j)
        ref_jac = 2.0 * np.stack([h.real, h.imag], axis=-1).reshape(-1, 2 * d)
        d_psi, c, w = sic_povm._deviations(disp, psi, target)
        jac = sic_povm._jacobian(d_psi, c, sic_povm._adjoint_rows(d))
        for got, ref in [(d_psi, ref_d_psi), (c, ref_c),
                         (w, np.abs(ref_c) ** 2 - target), (jac, ref_jac)]:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("d", range(2, 13))
def test_adjoint_rows_pair_each_displacement_with_its_adjoint(d):
    # D_{k,l}^dagger = +-D_{-k,-l}, with + for odd d: the identity that lets
    # _jacobian read D^dagger psi off D psi
    disp = displacement_operators(d)[1:]
    pair = sic_povm._adjoint_rows(d)
    # an involution, so each D is some D's adjoint exactly once
    np.testing.assert_array_equal(pair[pair], np.arange(d * d - 1))
    for a, b in enumerate(pair):
        adjoint = disp[a].conj().T
        plus = np.max(np.abs(adjoint - disp[b]))
        minus = np.max(np.abs(adjoint + disp[b]))
        assert (plus if d % 2 else min(plus, minus)) <= 1e-13


@pytest.mark.parametrize("d", [3, 5, 7])
def test_polish_evaluates_each_point_once(d, monkeypatch):
    # _polish normalizes its start and each line-search candidate once; one
    # evaluation per normalization means the accepted candidate's deviations
    # carry into the next step instead of being formed again for J
    rng = np.random.default_rng(1)
    start = rng.normal(size=d) + 1j * rng.normal(size=d)
    points, normalized = [], []
    evaluate, norm = sic_povm._deviations, np.linalg.norm

    def counted_evaluate(disp, psi, target):
        points.append(psi.tobytes())
        return evaluate(disp, psi, target)

    def counted_norm(x):
        normalized.append(1)
        return norm(x)

    monkeypatch.setattr(sic_povm, "_deviations", counted_evaluate)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    jacobians = _count_calls(monkeypatch, "_jacobian")
    _, steps, max_dev, ended = sic_povm._polish(start)
    assert max_dev <= sic_povm.POLISH_FLOOR
    assert ended == "floor"
    assert len(points) == len(normalized)
    assert len(set(points)) == len(points)
    # J is formed only at the points a step leaves, never at a rejected
    # candidate or at the point that meets the floor
    assert len(jacobians) == steps


def test_first_converged_restart_ends_the_search(monkeypatch):
    calls = _count_calls(monkeypatch, "_polish")
    fid = find_fiducial(5, seed=1)
    assert fid.converged
    assert fid.residual <= sic_povm.DEFAULT_TARGET_RESIDUAL
    assert len(calls) == 1


def test_unmet_target_runs_every_restart(monkeypatch):
    calls = _count_calls(monkeypatch, "_polish")
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    fid = find_fiducial(3, seed=0, restarts=2)
    assert fid.converged is False
    assert len(calls) == 2


def _restart_records(caplog):
    out = []
    for r in caplog.records:
        if r.getMessage().startswith("search restart"):
            out.append(dict(kv.split("=") for kv in r.getMessage().split()[2:]))
    return out


def test_search_logs_one_record_per_restart(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="sic_simplex")
    find_fiducial(5, seed=1)
    [winner] = _restart_records(caplog)
    assert winner["d"] == "5"
    assert winner["restart"] == "0"
    assert int(winner["iterations"]) < 60
    assert float(winner["max_dev"]) <= sic_povm.POLISH_FLOOR
    assert float(winner["residual"]) <= sic_povm.DEFAULT_TARGET_RESIDUAL
    assert float(winner["wall_ms"]) > 0.0
    assert winner["ended_search"] == "True"
    caplog.clear()
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    find_fiducial(3, seed=0, restarts=2)
    records = _restart_records(caplog)
    assert [r["restart"] for r in records] == ["0", "1"]
    assert [r["ended_search"] for r in records] == ["False", "False"]


@pytest.mark.parametrize("seed", range(10))
def test_d3_restarts_reach_the_floor_within_twelve_steps(seed, caplog):
    # d = 3 fiducials form a continuous family, so plain Gauss-Newton only
    # converges linearly there (18-27 steps); the doubled step cuts that
    caplog.set_level(logging.DEBUG, logger="sic_simplex")
    assert find_fiducial(3, seed=seed).converged
    for record in _restart_records(caplog):
        assert float(record["max_dev"]) <= sic_povm.POLISH_FLOOR
        assert int(record["iterations"]) <= 12


@pytest.mark.parametrize("d", [3, 4])
def test_searches_end_at_the_roundoff_floor(d):
    # a literal: seeds 0..9 end at 8.4e-15 at worst, and a floor of 1e-11
    # would leave d = 3 at 4.6e-12
    assert max(find_fiducial(d, seed=seed).residual
               for seed in range(10)) <= 1e-13


def test_stalled_restart_ends_early_and_the_search_goes_on(caplog):
    # the first start of seed 10 at d = 6 sits on a plateau at phi = 4.589e-2
    # and would spend all MAX_POLISH_STEPS steps there
    caplog.set_level(logging.DEBUG, logger="sic_simplex")
    fid = find_fiducial(6, seed=10)
    assert fid.converged
    stalled, *rest = _restart_records(caplog)
    assert stalled["ended_search"] == "False"
    assert float(stalled["max_dev"]) > 0.1
    assert int(stalled["iterations"]) < 40
    assert stalled["ended"] == "stall"
    assert rest[-1]["ended_search"] == "True"
    assert rest[-1]["ended"] == "floor"


def _first_start(d, seed):
    # the start of restart 0 of find_fiducial(d, seed)
    rng = np.random.default_rng(seed)
    return rng.normal(size=d) + 1j * rng.normal(size=d)


@pytest.mark.parametrize("start", ["basis", "nan"])
def test_polish_reports_no_decrease(start):
    # |0> has every overlap at 0 or 1; no halving of its first step helps
    # at the point that step reaches, and none helps a NaN start at all
    psi = np.eye(3)[0] if start == "basis" else np.full(3, np.nan)
    with np.errstate(invalid="ignore"):
        _, steps, _, ended = sic_povm._polish(psi.astype(complex))
    assert ended == "no_decrease"
    assert steps == (1 if start == "basis" else 0)


def test_polish_reports_the_step_cap(monkeypatch):
    monkeypatch.setattr(sic_povm, "MAX_POLISH_STEPS", 2)
    _, steps, max_dev, ended = sic_povm._polish(_first_start(5, 1))
    assert ended == "step_cap" and steps == 2
    assert max_dev > sic_povm.POLISH_FLOOR


def test_polish_reports_a_failed_solve(monkeypatch):
    # the ridge keeps the normal equations nonsingular, so only a solver
    # that raises reaches this exit
    def failing(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(np.linalg, "solve", failing)
    start = _first_start(5, 1)
    psi, steps, _, ended = sic_povm._polish(start)
    assert ended == "solve_failed" and steps == 0
    np.testing.assert_array_equal(psi, start / np.linalg.norm(start))


def _used_records(caplog):
    out = []
    for r in caplog.records:
        message = r.getMessage()
        if message.startswith("fiducial used"):
            fields = message.split(" (")[0].split()[2:]
            out.append(dict(kv.split("=") for kv in fields))
    return out


def _short_hash(fid):
    return hashlib.sha256(fid.psi.tobytes()).hexdigest()[:12]


def test_get_fiducial_names_the_fiducial_it_used(tmp_path, caplog):
    path = str(tmp_path / "cat.json")
    caplog.set_level(logging.DEBUG, logger="sic_simplex")
    qubit = get_fiducial(2, catalog_path=path)
    searched = get_fiducial(3, seed=1, catalog_path=path)
    cached = get_fiducial(3, seed=999, catalog_path=path)
    assert _used_records(caplog) == [
        {"d": "2", "source": "builtin", "seed": "None",
         "sha256": _short_hash(qubit)},
        {"d": "3", "source": "search", "seed": "1",
         "sha256": _short_hash(searched)},
        {"d": "3", "source": "catalog", "seed": "1",
         "sha256": _short_hash(cached)}]
    assert _short_hash(cached) == _short_hash(searched)
    assert path in caplog.records[-1].getMessage()


def test_fiducial_record_costs_nothing_when_debug_is_off(tmp_path, caplog,
                                                        monkeypatch):
    def no_hash(*args):
        raise AssertionError("hashed with DEBUG off")

    monkeypatch.setattr(hashlib, "sha256", no_hash)
    with caplog.at_level(logging.INFO, logger="sic_simplex"):
        assert get_fiducial(2).source == "builtin"
    assert not caplog.records


@pytest.mark.parametrize("text", [
    '[1, 2]',
    # the decoder recurses once per level, past the interpreter's limit
    pytest.param('{"3": ' + "[" * 100000 + "]" * 100000 + "}",
                 id="nested-too-deeply")])
def test_non_object_catalog_is_treated_as_empty(text, tmp_path, monkeypatch,
                                                caplog):
    path = tmp_path / "cat.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_catalog(str(path))
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        fid = get_fiducial(3, seed=1, catalog_path=str(path))
    assert fid.converged
    # one WARNING from the lookup, one from the write that replaces the file
    assert ([r.getMessage().split()[0] for r in caplog.records]
            == ["unreadable", "replacing"])
    assert all(r.getMessage().count(str(path)) == 1 for r in caplog.records)
    assert list(load_catalog(str(path))) == ["3"]
    path.write_text(text)
    monkeypatch.setenv("SIC_SIMPLEX_CATALOG", str(path))
    assert main(["verify", "--d", "3", "--samples", "10"]) == 0


def test_catalog_entry_under_the_wrong_key_is_refused(tmp_path, monkeypatch,
                                                      caplog):
    entry = fiducial_to_json(find_fiducial(3, seed=1))
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"4": entry}))
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        fid = get_fiducial(4, seed=1, catalog_path=str(path))
    assert fid.d == 4 and fid.source == "search"
    [refused] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert "d=4" in refused.getMessage() and "d=3" in refused.getMessage()
    assert load_catalog(str(path))["4"]["d"] == 4  # the search replaced it
    path.write_text(json.dumps({"4": entry}))
    monkeypatch.setenv("SIC_SIMPLEX_CATALOG", str(path))
    assert main(["verify", "--d", "4", "--samples", "10"]) == 0


@settings(max_examples=20, deadline=None)
@given(d=st.integers(3, 6), d_entry=st.integers(2, 5))
def test_catalog_entry_of_another_dimension_is_refused(d, d_entry, contexts,
                                                       tmp_path_factory):
    # a true SIC fiducial, so only the dimension check can refuse it
    assume(d_entry != d)
    path = tmp_path_factory.mktemp("catalog") / "cat.json"
    path.write_text(json.dumps(
        {str(d): fiducial_to_json(contexts[d_entry].sic.fiducial)}))
    with unittest.TestCase().assertLogs("sic_simplex", "WARNING") as logs:
        fid = get_fiducial(d, seed=1, catalog_path=str(path))
    assert fid.d == d and fid.source == "search"
    [refused] = logs.records
    assert f"d={d}:" in refused.getMessage()
    assert f"d={d_entry} vector" in refused.getMessage()
    assert load_catalog(str(path))[str(d)]["d"] == d


@pytest.mark.parametrize("text", ["", " \n\t\n"])
def test_empty_catalog_file_is_a_catalog_with_no_entries(text, tmp_path,
                                                        caplog):
    path = tmp_path / "cat.json"
    path.write_text(text)
    assert load_catalog(str(path)) == {}
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        fid = get_fiducial(3, seed=1, catalog_path=str(path))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert fid.converged
    assert "3" in json.loads(path.read_text())


def _no_search(*args, **kwargs):
    raise AssertionError("the catalog entry should have been used")


def test_one_bad_entry_leaves_the_others_usable(tmp_path, contexts,
                                                monkeypatch, caplog):
    # the entries other than 3 and 6 are not SIC fiducials: never parsed,
    # they are written back as stored
    raw = {str(d): _unit_vector_entry(d, d) for d in (4, 5, 7, 8)}
    raw["3"] = fiducial_to_json(contexts[3].sic.fiducial)
    raw["6"] = fiducial_to_json(contexts[6].sic.fiducial)
    raw["6"]["psi"] = raw["6"]["psi"][:-1]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(sic_povm, "find_fiducial", _no_search)
    with caplog.at_level(logging.DEBUG, logger="sic_simplex"):
        fid = get_fiducial(3, catalog_path=str(path))
    np.testing.assert_array_equal(fid.psi, contexts[3].sic.fiducial.psi)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert any("hit" in r.getMessage() for r in caplog.records)
    caplog.clear()
    monkeypatch.setattr(sic_povm, "find_fiducial",
                        lambda d, seed=0: contexts[d].sic.fiducial)
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        fid = get_fiducial(6, catalog_path=str(path))
    [refused] = caplog.records
    assert "d=6:" in refused.getMessage()
    assert "(5, 2)" in refused.getMessage()
    stored = json.loads(path.read_text())
    assert stored.pop("6") == fiducial_to_json(contexts[6].sic.fiducial)
    del raw["6"]
    assert stored == raw


def test_entry_recorded_during_a_search_survives(tmp_path, contexts,
                                                 monkeypatch):
    # another writer records d = 4 while this process searches d = 3
    path = str(tmp_path / "cat.json")
    search = sic_povm.find_fiducial

    def racing_search(d, seed=0):
        record_fiducial(contexts[4].sic.fiducial, path)
        return search(d, seed=seed)

    monkeypatch.setattr(sic_povm, "find_fiducial", racing_search)
    get_fiducial(3, seed=1, catalog_path=path)
    assert sorted(load_catalog(path)) == ["3", "4"]


def test_other_entries_come_back_unchanged(tmp_path, contexts):
    fixture = pathlib.Path(__file__).parents[1] / "perfbench" / "fiducials.json"
    raw = json.loads(fixture.read_text())
    raw["7"]["note"] = "a field this version does not know"
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(raw))
    record_fiducial(contexts[5].sic.fiducial, str(path))
    record_fiducial(qubit_tetrahedron_fiducial(), str(path))
    stored = json.loads(path.read_text())
    assert stored.pop("5") == fiducial_to_json(contexts[5].sic.fiducial)
    assert stored.pop("2") == fiducial_to_json(qubit_tetrahedron_fiducial())
    del raw["5"]
    assert stored == raw


def test_catalog_backed_context_forms_one_orbit(tmp_path, contexts,
                                                monkeypatch):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(
        {"3": fiducial_to_json(contexts[3].sic.fiducial)}))
    orbits = _count_calls(monkeypatch, "wh_orbit")
    residuals = _count_calls(monkeypatch, "sic_residual")
    ctx = build_context(3, catalog_path=str(path))
    np.testing.assert_array_equal(ctx.sic.fiducial.psi,
                                  contexts[3].sic.fiducial.psi)
    assert len(orbits) == 1
    assert len(residuals) == 1


@pytest.mark.parametrize("d", [3, 5, 7])
def test_cold_context_certifies_each_restart_once(d, tmp_path, monkeypatch):
    # the search's residual is the one build_sic and the catalog write read
    path = tmp_path / "cat.json"
    path.write_text("")
    orbits = _count_calls(monkeypatch, "wh_orbit")
    residuals = _count_calls(monkeypatch, "sic_residual")
    build_context(d, seed=1, catalog_path=str(path))
    assert (len(orbits), len(residuals)) == (1, 1)
    assert str(d) in load_catalog(str(path))
    # a search that misses: one orbit per restart, the winner's reused
    orbits.clear()
    residuals.clear()
    monkeypatch.setattr(sic_povm, "DEFAULT_TARGET_RESIDUAL", 1e-20)
    monkeypatch.setattr(sic_povm, "find_fiducial",
                        functools.partial(sic_povm.find_fiducial, restarts=3))
    path.write_text("")
    ctx = build_context(d, seed=1, catalog_path=str(path))
    assert not ctx.sic.fiducial.converged
    assert (len(orbits), len(residuals)) == (3, 3)
    assert load_catalog(str(path)) == {}


def _bad_entries():
    truncated = _unit_vector_entry(3, 0)
    truncated["psi"] = truncated["psi"][:-1]
    unnormalized = _unit_vector_entry(3, 0)
    unnormalized["psi"][0] = [2.0, 0.0]
    strings = _unit_vector_entry(3, 0)
    strings["psi"] = [[str(x) for x in z] for z in strings["psi"]]
    return [
        ("3", [1, 2], "not a JSON object"),
        ("3", None, "not a JSON object"),
        ("x", _unit_vector_entry(3, 0), None),
        ("05", _unit_vector_entry(5, 0), None),
        ("3", {"d": 3}, "no psi field"),
        ("3", {**_unit_vector_entry(3, 0), "d": None}, "NoneType"),
        ("3", truncated, "(2, 2) for d=3"),
        ("3", unnormalized, "norm"),
        ("3", _unit_vector_entry(4, 0), "d=4 vector"),
        ("3", strings, "not an array of numbers"),
    ]


@pytest.mark.parametrize(
    "key, entry, reason", _bad_entries(),
    ids=["entry-not-an-object", "entry-null", "key-not-a-dimension",
         "key-shadowing-another", "missing-field",
         "d-not-a-number", "truncated-psi", "unnormalized-psi",
         "other-dimension", "psi-strings"])
def test_bad_catalog_entry_is_refused_alone(key, entry, reason, tmp_path,
                                            contexts, monkeypatch, caplog):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(
        {key: entry, "5": fiducial_to_json(contexts[5].sic.fiducial)}))
    # a lookup of another d never parses the bad entry ("05" cannot shadow
    # "5"), and a write keeps it as stored
    monkeypatch.setattr(sic_povm, "find_fiducial", _no_search)
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        np.testing.assert_array_equal(
            get_fiducial(5, catalog_path=str(path)).psi,
            contexts[5].sic.fiducial.psi)
        record_fiducial(qubit_tetrahedron_fiducial(), str(path))
    assert not caplog.records
    stored = json.loads(path.read_text())
    assert sorted(stored) == sorted([key, "2", "5"])
    assert stored[key] == entry
    if reason is None:
        return
    # the entry's own lookup refuses it with one WARNING and its reason
    monkeypatch.setattr(sic_povm, "find_fiducial",
                        lambda d, seed=0: contexts[d].sic.fiducial)
    with caplog.at_level(logging.WARNING, logger="sic_simplex"):
        get_fiducial(int(key), catalog_path=str(path))
    [refused] = caplog.records
    assert f"d={key}:" in refused.getMessage()
    assert reason in refused.getMessage()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("d", range(3, 11))
def test_search_converges(d, seed):
    assert find_fiducial(d, seed=seed).converged


@pytest.mark.parametrize("d", range(3, 11))
def test_search_converges_for_fifty_seeds(d):
    # a guard on the Gauss-Newton step: every seed 0..49 still converges
    failed = [seed for seed in range(50)
              if not find_fiducial(d, seed=seed).converged]
    assert failed == []


def test_adjoint_rows_are_built_once_and_read_only():
    pair = sic_povm._adjoint_rows(5)
    assert sic_povm._adjoint_rows(5) is pair
    with pytest.raises(ValueError):
        pair[0] = 0
