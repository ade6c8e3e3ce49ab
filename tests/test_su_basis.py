import dataclasses
import itertools

import numpy as np
import pytest

from sic_simplex.su_basis import (SuBasis, build_su_basis, structure_constants,
                                  star_product)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_d2_is_pauli_in_xyz_order():
    basis = build_su_basis(2)
    assert basis.matrices.shape == (3, 2, 2)
    np.testing.assert_array_equal(basis.matrices[0], PAULI_X)
    np.testing.assert_array_equal(basis.matrices[1], PAULI_Y)
    np.testing.assert_array_equal(basis.matrices[2], PAULI_Z)


def test_counts():
    assert build_su_basis(3).matrices.shape == (8, 3, 3)
    assert build_su_basis(4).matrices.shape == (15, 4, 4)


def test_d4_traceless_hermitian_entrywise():
    # direct entrywise verification over the constructed set
    for m in build_su_basis(4).matrices:
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m)) < 1e-12


def test_rejects_small_d():
    with pytest.raises(ValueError):
        build_su_basis(1)
    with pytest.raises(ValueError):
        build_su_basis(0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_orthogonality(d):
    S = build_su_basis(d).matrices
    gram = np.real(np.einsum('aij,bji->ab', S, S))
    assert np.max(np.abs(gram - 2.0 * np.eye(d * d - 1))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_reconstruction_completeness(d):
    # any traceless Hermitian H = sum_a (Tr(H sigma_a)/2) sigma_a
    S = build_su_basis(d).matrices
    rng = np.random.default_rng(d)
    for _ in range(100):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = g + g.conj().T
        h -= np.trace(h) / d * np.eye(d)
        coeffs = np.real(np.einsum('aij,ji->a', S, h)) / 2.0
        rebuilt = np.einsum('a,aij->ij', coeffs, S)
        assert np.max(np.abs(rebuilt - h)) < 1e-10


def test_determinism():
    np.testing.assert_array_equal(build_su_basis(4).matrices,
                                  build_su_basis(4).matrices)


def _levi_civita(a, b, c):
    if len({a, b, c}) < 3:
        return 0.0
    perm = (a, b, c)
    even = perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    return 1.0 if even else -1.0


def test_d2_structure_constants_are_levi_civita():
    sc = structure_constants(build_su_basis(2))
    assert np.max(np.abs(sc.dsym)) < 1e-12
    expected = np.array([[[_levi_civita(a, b, c) for c in range(3)]
                          for b in range(3)] for a in range(3)])
    assert np.max(np.abs(sc.f - expected)) < 1e-12


def test_d3_cross_check_against_direct_traces():
    # independent oracle: plain matmul traces, no einsum path shared
    basis = build_su_basis(3)
    sc = structure_constants(basis)
    S = basis.matrices
    for a, b, c in itertools.product(range(8), repeat=3):
        t = np.trace(S[a] @ S[b] @ S[c])
        assert abs(sc.f[a, b, c] - t.imag / 2.0) < 1e-12
        assert abs(sc.dsym[a, b, c] - t.real / 2.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_structure_constants_match_direct_traces(d):
    # oracle: one np.trace of a plain triple product per (a, b, c)
    basis = build_su_basis(d)
    sc = structure_constants(basis)
    S = basis.matrices
    m = d * d - 1
    triple = np.empty((m, m, m), dtype=complex)
    for a, b, c in itertools.product(range(m), repeat=3):
        triple[a, b, c] = np.trace(S[a] @ S[b] @ S[c])
    assert np.max(np.abs(sc.f - triple.imag / 2.0)) < 1e-13
    assert np.max(np.abs(sc.dsym - triple.real / 2.0)) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_consistency(d):
    basis = build_su_basis(d)
    sc = structure_constants(basis)
    S = basis.matrices
    triple = np.einsum('aij,bjk,cki->abc', S, S, S)
    assert np.max(np.abs(2 * sc.dsym + 2j * sc.f - triple)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symmetries(d):
    sc = structure_constants(build_su_basis(d))
    f, ds = sc.f, sc.dsym
    assert np.max(np.abs(f + np.swapaxes(f, 0, 1))) < 1e-10
    assert np.max(np.abs(f + np.swapaxes(f, 1, 2))) < 1e-10
    assert np.max(np.abs(ds - np.swapaxes(ds, 0, 1))) < 1e-10
    assert np.max(np.abs(ds - np.swapaxes(ds, 1, 2))) < 1e-10
    assert np.max(np.abs(ds - np.transpose(ds, (2, 0, 1)))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dsym_contraction_vanishes(d):
    # sum_a dsym_aac = Re Tr(sigma_a sigma_a sigma_c)/2 summed traces out
    sc = structure_constants(build_su_basis(d))
    contraction = np.einsum('aac->c', sc.dsym)
    assert np.max(np.abs(contraction)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_anticommutator_identity(d):
    # {sigma_a, sigma_b} = (4/d) delta_ab I + 2 dsym_abc sigma_c
    basis = build_su_basis(d)
    sc = structure_constants(basis)
    S = basis.matrices
    m = d * d - 1
    for a in range(m):
        for b in range(m):
            anti = S[a] @ S[b] + S[b] @ S[a]
            expected = (4.0 / d) * (a == b) * np.eye(d) \
                + 2.0 * np.einsum('c,cij->ij', sc.dsym[a, b], S)
            assert np.max(np.abs(anti - expected)) < 1e-10


def test_star_product_d2_vanishes():
    sc = structure_constants(build_su_basis(2))
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.normal(size=3)
        assert np.max(np.abs(star_product(r, r, sc))) < 1e-12


def test_star_product_zero_vector():
    sc = structure_constants(build_su_basis(3))
    r = np.random.default_rng(1).normal(size=8)
    assert np.max(np.abs(star_product(np.zeros(8), r, sc))) < 1e-15


def test_star_product_pure_state_direction():
    # Bloch vector of a pure state satisfies r*r = (d-2) sqrt(2/(d(d+1))) r
    from sic_simplex.bloch import random_pure_state, to_bloch
    d = 3
    basis = build_su_basis(d)
    sc = structure_constants(basis)
    for seed in range(10):
        r = to_bloch(random_pure_state(d, seed), basis)
        lhs = star_product(r, r, sc)
        rhs = (d - 2.0) * np.sqrt(2.0 / (d * (d + 1.0))) * r
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_star_product_symmetric_in_arguments():
    sc = structure_constants(build_su_basis(3))
    rng = np.random.default_rng(2)
    r1, r2 = rng.normal(size=8), rng.normal(size=8)
    np.testing.assert_allclose(star_product(r1, r2, sc),
                               star_product(r2, r1, sc), atol=1e-13)


def _assert_star_product_matches_dense(sc, rng):
    m = sc.d * sc.d - 1
    for _ in range(10):
        r1, r2 = rng.normal(size=(2, m))
        expected = np.einsum('abc,a,b->c', sc.dsym, r1, r2)
        assert np.max(np.abs(star_product(r1, r2, sc) - expected)) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_star_product_matches_dense_contraction(d):
    sc = structure_constants(build_su_basis(d))
    _assert_star_product_matches_dense(sc, np.random.default_rng(40 + d))


@pytest.mark.parametrize("order", ["shuffled", "rotated"])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_star_product_matches_dense_contraction_in_other_bases(d, order):
    rng = np.random.default_rng(50 + d)
    m = d * d - 1
    mats = build_su_basis(d).matrices
    if order == "shuffled":
        mats = mats[rng.permutation(m)]
    else:
        # an orthogonal mix keeps Tr(sigma_a sigma_b) = 2 delta_ab but makes
        # dsym dense; the sparse sum must still be exact
        mats = np.einsum('ab,bij->aij', np.linalg.qr(rng.normal(size=(m, m)))[0],
                         mats)
    sc = structure_constants(SuBasis(d=d, matrices=mats))
    _assert_star_product_matches_dense(sc, rng)


def test_structure_constants_are_frozen_and_read_only():
    sc = structure_constants(build_su_basis(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.dsym = np.zeros_like(sc.dsym)
    with pytest.raises(ValueError):
        sc.dsym[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        sc.f[0, 0, 0] = 1.0


def test_star_product_length_mismatch():
    sc = structure_constants(build_su_basis(3))
    with pytest.raises(ValueError):
        star_product(np.zeros(7), np.zeros(8), sc)
