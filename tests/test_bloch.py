import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_simplex import bloch
from sic_simplex.bloch import (from_bloch, to_bloch, is_state, is_pure,
                               random_density_matrix, random_pure_state,
                               validate_density_matrix)
from sic_simplex.su_basis import build_su_basis, structure_constants

BASES = {d: build_su_basis(d) for d in (2, 3, 4, 5)}
SCS = {d: structure_constants(b) for d, b in BASES.items()}


def test_zero_vector_is_maximally_mixed():
    for d in (2, 3, 4):
        rho = from_bloch(np.zeros(d * d - 1), BASES[d])
        np.testing.assert_allclose(rho, np.eye(d) / d, atol=1e-15)


def test_qubit_z_axis_projector():
    # |r| = sqrt((d-1)/(d+1)) = 1/sqrt(3) along z gives the |0> projector
    r = np.array([0.0, 0.0, 1.0 / np.sqrt(3.0)])
    rho = from_bloch(r, BASES[2])
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_bloch_vectors_give_unit_purity(d):
    for seed in range(20):
        r = to_bloch(random_pure_state(d, seed), BASES[d])
        rho = from_bloch(r, BASES[d])
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10


def test_from_bloch_length_check():
    with pytest.raises(ValueError):
        from_bloch(np.zeros(4), BASES[2])


@pytest.mark.parametrize("d", range(2, 9))
def test_from_bloch_matches_the_einsum_form(d):
    # only the diagonal sums reorder, so the two agree to roundoff of the
    # largest entry, which grows with |r|
    basis = build_su_basis(d)
    n = d * d - 1
    rng = np.random.default_rng(40 + d)
    units = rng.normal(size=(80, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    radii = np.repeat([1e-3, np.sqrt((d - 1.0) / (d + 1.0)),
                       1.5 * np.sqrt(n), 10.0 * np.sqrt(n)], 20)
    coeff = np.sqrt((d + 1.0) / (2.0 * d))
    for r in radii[:, None] * units:
        ref = np.eye(d) / d + coeff * np.einsum('a,aij->ij', r, basis.matrices)
        err = np.max(np.abs(from_bloch(r, basis) - ref))
        assert err <= 1e-15 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("d", [2, 5])
def test_from_bloch_returns_a_fresh_writable_matrix(d):
    basis = build_su_basis(d)
    r = to_bloch(random_density_matrix(d, 6), basis)
    matrices = basis.matrices.copy()
    rho = from_bloch(r, basis)
    first = rho.copy()
    rho[...] = 7.0
    np.testing.assert_array_equal(basis.matrices, matrices)
    np.testing.assert_array_equal(from_bloch(r, basis), first)


def test_maximally_mixed_has_zero_bloch_vector():
    for d in (2, 3, 5):
        r = to_bloch(np.eye(d) / d, BASES[d])
        assert np.max(np.abs(r)) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_roundtrips_both_ways(d):
    basis = BASES[d]
    rng = np.random.default_rng(d)
    for _ in range(1000):
        rho = random_density_matrix(d, rng)
        r = to_bloch(rho, basis)
        np.testing.assert_allclose(from_bloch(r, basis), rho, atol=1e-12)
        np.testing.assert_allclose(to_bloch(from_bloch(r, basis), basis), r,
                                   atol=1e-12)


def test_roundtrip_arbitrary_vectors():
    # the linear maps invert each other even off the state body
    basis = BASES[3]
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = rng.normal(size=8)
        np.testing.assert_allclose(to_bloch(from_bloch(r, basis), basis), r,
                                   atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_state_norm_law(d):
    for seed in range(20):
        r = to_bloch(random_pure_state(d, seed), BASES[d])
        assert abs(r @ r - (d - 1.0) / (d + 1.0)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_to_bloch_matches_rows(d):
    rhos = random_density_matrix(d, d, size=30)
    batched = to_bloch(rhos, BASES[d])
    assert batched.shape == (30, d * d - 1)
    for rho, r in zip(rhos, batched):
        assert np.max(np.abs(to_bloch(rho, BASES[d]) - r)) <= 1e-15
    stacked = to_bloch(rhos.reshape(5, 6, d, d), BASES[d])
    np.testing.assert_array_equal(stacked.reshape(30, -1), batched)


@pytest.mark.parametrize("defect", ["non_hermitian", "trace", "nan"])
def test_batched_to_bloch_rejects_any_bad_row(defect):
    rhos = random_density_matrix(3, 0, size=8)
    if defect == "non_hermitian":
        rhos[5, 0, 1] += 1e-9
    elif defect == "trace":
        rhos[5] *= 1.0 + 1e-9
    else:
        rhos[5, 1, 1] = np.nan
    with pytest.raises(ValueError):
        to_bloch(rhos, BASES[3])


def test_to_bloch_rejects_nan():
    rho = np.eye(2, dtype=complex) / 2.0
    rho[0, 0] = np.nan
    with pytest.raises(ValueError):
        to_bloch(rho, BASES[2])


def test_to_bloch_rejects_bad_input():
    with pytest.raises(ValueError):
        to_bloch(np.array([[0.0, 1.0], [0.0, 0.0]]), BASES[2])  # not Hermitian
    with pytest.raises(ValueError):
        to_bloch(np.eye(2), BASES[2])                           # trace 2


def test_is_state_at_origin():
    ok, min_eig = is_state(np.zeros(3), BASES[2])
    assert ok
    assert abs(min_eig - 0.5) < 1e-15


def test_qubit_pure_sphere_is_all_states():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.normal(size=3)
        r = u / np.linalg.norm(u) / np.sqrt(3.0)
        ok, min_eig = is_state(r, BASES[2])
        assert ok
        assert min_eig > -1e-12


def test_antipode_of_pure_state_is_not_a_state():
    # 2I/d - rho has eigenvalue 2/d - 1 = -1/3 for pure rho, d = 3
    for seed in range(10):
        r = to_bloch(random_pure_state(3, seed), BASES[3])
        ok, min_eig = is_state(-r, BASES[3])
        assert not ok
        assert abs(min_eig + 1.0 / 3.0) < 1e-12


def test_is_pure_on_qubit_sphere():
    rng = np.random.default_rng(8)
    u = rng.normal(size=3)
    r = u / np.linalg.norm(u) / np.sqrt(3.0)
    assert is_pure(r, SCS[2])


def test_origin_is_not_pure():
    assert not is_pure(np.zeros(3), SCS[2])
    assert not is_pure(np.zeros(8), SCS[3])


def test_is_pure_refuses_wrong_length_and_nan():
    with pytest.raises(ValueError):
        is_pure(np.zeros(7), SCS[3])
    with pytest.raises(ValueError):
        is_pure(np.zeros((1, 8)), SCS[3])
    r = to_bloch(random_pure_state(3, 9), BASES[3])
    r[4] = np.nan
    assert not is_pure(r, SCS[3])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_is_pure_forms_star_product_only_past_norm_test(d, monkeypatch):
    calls = []
    real = bloch.star_product

    def counting(r1, r2, sc):
        calls.append(d)
        return real(r1, r2, sc)

    monkeypatch.setattr(bloch, "star_product", counting)
    assert not is_pure(to_bloch(random_density_matrix(d, 3), BASES[d]), SCS[d])
    assert calls == []
    assert is_pure(to_bloch(random_pure_state(d, 3), BASES[d]), SCS[d])
    assert calls == [d]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_purity_sweep(d):
    basis, sc = BASES[d], SCS[d]
    rng = np.random.default_rng(100 + d)
    for _ in range(100):
        r = to_bloch(random_pure_state(d, rng), basis)
        assert is_pure(r, sc)
        r = to_bloch(random_density_matrix(d, rng), basis)
        assert not is_pure(r, sc)


def test_is_pure_at_d16_builds_no_dense_table():
    # a fresh basis: its dense f and dsym would take 265 MB
    basis = build_su_basis.__wrapped__(16)
    sc = structure_constants(basis)
    assert is_pure(to_bloch(random_pure_state(16, 0), basis), sc)
    assert not is_pure(to_bloch(random_density_matrix(16, 0), basis), sc)
    assert "_dense" not in vars(sc)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_purity_test_equivalence(d):
    # agreement with the direct matrix test |rho^2 - rho| < 1e-9
    basis, sc = BASES[d], SCS[d]
    rng = np.random.default_rng(200 + d)
    for _ in range(50):
        for rho in (random_pure_state(d, rng), random_density_matrix(d, rng)):
            direct = np.max(np.abs(rho @ rho - rho)) < 1e-9
            assert is_pure(to_bloch(rho, basis), sc) == direct


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_norm_bound_over_states(d):
    # pure states maximize the Bloch norm
    basis = BASES[d]
    rng = np.random.default_rng(300 + d)
    bound = (d - 1.0) / (d + 1.0) + 1e-10
    for _ in range(200):
        r = to_bloch(random_density_matrix(d, rng), basis)
        assert r @ r <= bound


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_samplers_produce_valid_states(d):
    for seed in range(20):
        validate_density_matrix(random_density_matrix(d, seed))
        rho = random_pure_state(d, seed)
        validate_density_matrix(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_mixed_samples_are_mixed():
    purities = [np.trace(m @ m).real
                for m in (random_density_matrix(3, s) for s in range(1000))]
    assert max(purities) < 1.0


def test_samplers_deterministic():
    np.testing.assert_array_equal(random_density_matrix(3, 7),
                                  random_density_matrix(3, 7))
    np.testing.assert_array_equal(random_pure_state(4, 7),
                                  random_pure_state(4, 7))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("sampler", [random_density_matrix, random_pure_state])
def test_batched_draws_equal_sequential_draws(sampler, d):
    rng = np.random.default_rng(17)
    sequential = np.stack([sampler(d, rng) for _ in range(40)])
    rng = np.random.default_rng(17)
    batched = np.concatenate([sampler(d, rng, size=25), sampler(d, rng, size=15)])
    assert batched.tobytes() == sequential.tobytes()


def _ginibre_reference(d, rng, size):
    # the sampler's formulas as first written, kept as the reference
    x = rng.normal(size=(() if size is None else (size,)) + (2, d, d))
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _haar_reference(d, rng, size):
    x = rng.normal(size=(() if size is None else (size,)) + (2, d))
    psi = x[..., 0, :] + 1j * x[..., 1, :]
    re, im = psi.real[..., None, :], psi.imag[..., None, :]
    norm2 = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    psi = psi / np.sqrt(norm2[..., 0])
    return psi[..., :, None] * psi.conj()[..., None, :]


@pytest.mark.parametrize("sampler, reference",
                         [(random_density_matrix, _ginibre_reference),
                          (random_pure_state, _haar_reference)])
@pytest.mark.parametrize("d", range(2, 9))
def test_samplers_equal_the_reference_formulas(sampler, reference, d):
    # verify's outputs are functions of these bytes
    for seed in (0, 12345):
        for size in (None, 1, 37, 1000):
            got = sampler(d, seed, size=size)
            want = reference(d, np.random.default_rng(seed), size)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_validate_density_matrix_rejects():
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))                           # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))                # negative eig
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))  # NaN


def test_validate_density_matrix_refuses_empty_matrix():
    # an empty matrix has trace 0, which the gate's trace check refuses
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.zeros((0, 0)))


# adversarial single-entry edits of a Ginibre state: both gates must refuse
# each, whichever entry is hit
GATES = [lambda rho: to_bloch(rho, BASES[rho.shape[0]]), validate_density_matrix]
ginibre = st.builds(random_density_matrix, st.integers(2, 5),
                    st.integers(0, 2 ** 32 - 1))
breach = st.floats(1e-9, 1e6)
direction = st.sampled_from([1.0, -1.0, 1j, -1j])


def _assert_gates_refuse(rho):
    for gate in GATES:
        with pytest.raises(ValueError):
            gate(rho)


@settings(max_examples=50, deadline=None)
@given(ginibre, st.data())
def test_gates_reject_nan_at_any_entry(rho, data):
    d = rho.shape[0]
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    rho[i, j] = data.draw(st.sampled_from([np.nan, 1j * np.nan]))
    _assert_gates_refuse(rho)


@settings(max_examples=50, deadline=None)
@given(ginibre, st.data(), breach, direction)
def test_gates_reject_hermiticity_breach(rho, data, eps, phase):
    d = rho.shape[0]
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.integers(0, d - 1).filter(lambda k: k != i))
    rho[i, j] += eps * phase
    _assert_gates_refuse(rho)


@settings(max_examples=50, deadline=None)
@given(ginibre, st.data(), breach, st.sampled_from([1.0, -1.0]))
def test_gates_reject_trace_shift(rho, data, eps, sign):
    k = data.draw(st.integers(0, rho.shape[0] - 1))
    rho[k, k] += sign * eps
    _assert_gates_refuse(rho)


def _reported_hermitian_error(rho, monkeypatch):
    """The Hermitian error the gate computes for rho: the first reduction it
    takes, whether or not it then raises."""
    seen = []
    max_abs = bloch._max_abs
    monkeypatch.setattr(bloch, "_max_abs",
                        lambda x: seen.append(max_abs(x)) or seen[-1])
    try:
        bloch._check_hermitian_unit_trace(rho)
    except ValueError:
        pass
    return seen[0]


def _full_hermitian_error(rho):
    return np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))


@pytest.mark.parametrize("stack", [(), (7,), (2, 3)], ids=["one", "7", "2x3"])
@pytest.mark.parametrize("d, where", [
    (d, where) for d in range(1, 9) for where in ("above", "below", "diagonal")
    if d > 1 or where == "diagonal"])
def test_hermitian_error_reads_each_pair_once_bit_for_bit(d, where, stack,
                                                          monkeypatch):
    rng = np.random.default_rng([d, len(stack), len(where)])
    shape = stack + (d, d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Hermitian up to roundoff, then one breach per matrix, of 1e-12 to 1
    rho = g @ g.conj().swapaxes(-1, -2) + 1e-15 * g
    if where == "diagonal":
        j = k = rng.integers(d)
    else:
        j, k = sorted(rng.choice(d, size=2, replace=False))
        if where == "below":
            j, k = k, j
    breach = rng.standard_normal(stack) * 10.0 ** rng.integers(-12, 1, stack)
    rho[..., j, k] += (1j if where == "diagonal" else 1 + 1j) * breach
    got = _reported_hermitian_error(rho, monkeypatch)
    assert np.float64(got).tobytes() == _full_hermitian_error(rho).tobytes()


@pytest.mark.parametrize("d", range(1, 9))
def test_gate_leaves_a_real_input_unchanged(d, monkeypatch):
    rho = np.random.default_rng(d).standard_normal((4, d, d))
    before = rho.tobytes()
    got = _reported_hermitian_error(rho, monkeypatch)
    assert rho.tobytes() == before
    assert np.float64(got).tobytes() == _full_hermitian_error(rho).tobytes()
    # symmetric: the Hermitian check passes and the trace check refuses
    sym = rho + rho.swapaxes(-1, -2)
    before = sym.tobytes()
    with pytest.raises(ValueError, match="trace"):
        bloch._check_hermitian_unit_trace(sym)
    assert sym.tobytes() == before


@pytest.mark.parametrize("nan", [np.nan, 1j * np.nan, np.nan + 0j],
                         ids=["real", "imag", "complex"])
@pytest.mark.parametrize("d", range(1, 5))
def test_gate_refuses_nan_at_every_entry_of_a_stack(d, nan):
    base = np.broadcast_to(np.eye(d, dtype=complex) / d, (3, d, d))
    for j in range(d):
        for k in range(d):
            rho = base.copy()
            rho[1, j, k] = nan
            with pytest.raises(ValueError):
                bloch._check_hermitian_unit_trace(rho)


@pytest.mark.parametrize("rho, message", [
    (np.array([[0.5, 0.1], [0.3, 0.5]]),
     "not Hermitian: max |rho - rho^dag| = 2.000e-01"),
    (np.array([[0.5, 0.1j], [0.1j, 0.5]]),
     "not Hermitian: max |rho - rho^dag| = 2.000e-01"),
    (np.eye(2), "trace is off 1 by 1.000e+00"),
    (np.zeros((0, 0)), "trace is off 1 by 1.000e+00"),
    (np.array([[np.nan, 0.0], [0.0, 0.5]]),
     "not Hermitian: max |rho - rho^dag| = nan"),
    (np.diag([1.5, -0.5]), "not PSD: min eigenvalue -5.000e-01"),
], ids=["real", "imag", "trace", "empty", "nan", "psd"])
def test_validate_density_matrix_error_texts(rho, message):
    with pytest.raises(ValueError) as err:
        validate_density_matrix(rho)
    assert str(err.value) == message
