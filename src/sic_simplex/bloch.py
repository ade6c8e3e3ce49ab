"""Bloch-vector representation of qudit density matrices.

A d x d density matrix is parameterized by a real vector r of length
d**2 - 1 through

    rho = I/d + sqrt((d+1)/(2d)) sum_a r_a sigma_a,

with sigma_a the su(d) basis from `su_basis`.  Under this normalization a
pure state has |r|^2 = (d-1)/(d+1) and satisfies the star-product condition
r * r = (d-2) sqrt(2/(d(d+1))) r.

The JSON form of states lives in `cli`, the one reader and writer of state
files.
"""

import math

import numpy as np

from .su_basis import SuBasis, StructureConstants, star_product, trace_columns

# Hermiticity and unit-trace tolerance of input density matrices
HERM_TRACE_TOL = 1e-12
# eigensolvers return tiny negative eigenvalues for boundary states
PSD_TOL = 1e-10
PURITY_TOL = 1e-9


def _max_abs(x) -> float:
    """Largest |x|, NaN if any entry is NaN, 0.0 for an empty array."""
    return float(np.max(np.abs(x), initial=0.0))


def _check_hermitian_unit_trace(rho: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the (..., d, d) stack rho is
    Hermitian with unit trace within `HERM_TRACE_TOL`; NaN fails both."""
    # the ufunc, not .conj(), which returns a real rho itself
    diff = np.conjugate(np.swapaxes(rho, -1, -2))
    herm = _max_abs(np.subtract(rho, diff, out=diff))
    if not herm <= HERM_TRACE_TOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    trace_err = _max_abs(np.einsum('...ii->...', rho) - 1.0)
    if not trace_err <= HERM_TRACE_TOL:
        raise ValueError(f"trace is off 1 by {trace_err:.3e}")


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a square matrix, Hermitian, unit-trace
    and PSD (within `HERM_TRACE_TOL` and `PSD_TOL`); NaN fails every check."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    _check_hermitian_unit_trace(rho)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if not min_eig >= -PSD_TOL:
        raise ValueError(f"not PSD: min eigenvalue {min_eig:.3e}")


def from_bloch(r: np.ndarray, basis: SuBasis) -> np.ndarray:
    """Candidate density matrix I/d + sqrt((d+1)/(2d)) r . sigma.

    Hermitian with unit trace for any real r; positive semidefiniteness is
    not guaranteed (check with `is_state`).  r . sigma is one product of r
    with the basis flattened to (m, d**2), a view of `basis.matrices`, so no
    table is cached; 1/d is then added to the diagonal of the fresh result.
    """
    d = basis.d
    m = d * d - 1
    r = np.asarray(r, dtype=float)
    if r.shape != (m,):
        raise ValueError(f"expected Bloch vector of length {m}, got {r.shape}")
    coeff = math.sqrt((d + 1.0) / (2.0 * d))
    rho = coeff * (r @ basis.matrices.reshape(m, d * d)).reshape(d, d)
    rho.flat[::d + 1] += 1.0 / d
    return rho


def to_bloch(rho: np.ndarray, basis: SuBasis) -> np.ndarray:
    """Bloch vector r_a = sqrt(d/(2(d+1))) Tr(rho sigma_a).

    `rho` may carry leading batch axes, (..., d, d) -> (..., d**2 - 1).
    Requires every rho Hermitian with unit trace (within `HERM_TRACE_TOL`);
    the imaginary residue of the traces is checked against the same
    tolerance and then discarded.  NaN fails every check.
    """
    d = basis.d
    rho = np.asarray(rho)
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"expected {d}x{d} matrix, got shape {rho.shape}")
    _check_hermitian_unit_trace(rho)
    traces = rho.reshape(rho.shape[:-2] + (d * d,)) @ trace_columns(basis)
    if not _max_abs(traces.imag) <= HERM_TRACE_TOL:
        raise ValueError("Tr(rho sigma_a) has imaginary part beyond tolerance")
    return np.sqrt(d / (2.0 * (d + 1.0))) * traces.real


def is_state(r: np.ndarray, basis: SuBasis):
    """Whether from_bloch(r) is positive semidefinite.

    Returns (ok, min_eigenvalue); ok is True iff the minimum eigenvalue is
    >= -PSD_TOL.
    """
    min_eig = float(np.linalg.eigvalsh(from_bloch(r, basis))[0])
    return min_eig >= -PSD_TOL, min_eig


def is_pure(r: np.ndarray, sc: StructureConstants) -> bool:
    """Pure-state test on the Bloch vector itself.

    True iff |r|^2 = (d-1)/(d+1) and r * r = (d-2) sqrt(2/(d(d+1))) r, both
    within `PURITY_TOL`.  The norm is tested first, and a vector that fails
    it (NaN included) is refused without forming the star product.  For
    d = 2 the star-product condition holds trivially (dsym vanishes and the
    prefactor is zero).

    Raises
    ------
    ValueError
        If r is not a vector of length d**2 - 1.
    """
    d = sc.d
    r = np.asarray(r, dtype=float)
    if r.shape != (d * d - 1,):
        raise ValueError(f"expected Bloch vector of length {d * d - 1}, got {r.shape}")
    if not abs(r @ r - (d - 1.0) / (d + 1.0)) <= PURITY_TOL:
        return False
    prefactor = (d - 2.0) * math.sqrt(2.0 / (d * (d + 1.0)))
    defect = star_product(r, r, sc) - prefactor * r
    # sqrt(defect . defect), the sum np.linalg.norm forms for a real vector
    return math.sqrt(defect @ defect) <= PURITY_TOL


def _stack(size: int | None) -> tuple:
    return () if size is None else (size,)


def random_density_matrix(d: int, seed, size: int | None = None) -> np.ndarray:
    """Full-rank Ginibre sample rho = G G^dag / Tr(G G^dag).

    `seed` is an int or a numpy Generator; results are deterministic for a
    given int seed.  With an int `size` the result is a stack of that many
    samples, equal byte for byte to as many sequential calls on
    the same generator: one (size, 2, d, d) standard normal draw takes the
    real and imaginary parts of each G in the same order.  G is assembled in
    one complex array and rho is normalized in place.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(_stack(size) + (2, d, d))
    g = np.empty(_stack(size) + (d, d), dtype=complex)
    g.real, g.imag = x[..., 0, :, :], x[..., 1, :, :]
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return rho


def random_pure_state(d: int, seed, size: int | None = None) -> np.ndarray:
    """Haar-random rank-1 projector |psi><psi|; `size` stacks samples as in
    `random_density_matrix`.  psi is assembled in one complex array and
    normalized in place before its outer product."""
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(_stack(size) + (2, d))
    psi = np.empty(_stack(size) + (d,), dtype=complex)
    psi.real, psi.imag = x[..., 0, :], x[..., 1, :]
    # |psi|^2 as two real dot products, the same sum np.linalg.norm forms;
    # einsum and .sum round differently in the last bit
    re, im = psi.real[..., None, :], psi.imag[..., None, :]
    norm2 = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    psi /= np.sqrt(norm2[..., 0])
    return psi[..., :, None] * psi.conj()[..., None, :]
