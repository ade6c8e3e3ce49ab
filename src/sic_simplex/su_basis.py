"""Orthogonal traceless Hermitian basis of su(d) and its structure constants.

The basis consists of the generalized Gell-Mann matrices, normalized so that
Tr(sigma_a sigma_b) = 2 delta_ab.  The totally antisymmetric and totally
symmetric structure constants f_abc, d_abc are read off from the triple
traces Tr(sigma_a sigma_b sigma_c) = 2 d_abc + 2i f_abc.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# rows a of Tr(sigma_a sigma_b sigma_c) computed per matmul in
# `_triple_traces`; bounds its complex temporaries to a few
# SC_ROW_BLOCK * m * d**2 entries
SC_ROW_BLOCK = 8


@dataclass(frozen=True, eq=False)
class SuBasis:
    """Ordered basis {sigma_a} of traceless Hermitian d x d matrices.

    Ordering: symmetric off-diagonal pairs E_jk + E_kj for j < k
    (lexicographic), then antisymmetric pairs -i(E_jk - E_kj), then the
    d - 1 diagonal matrices sqrt(2/(l(l+1))) (sum_{m<=l} E_mm - l E_{l+1,l+1}).
    For d = 2 this reproduces the Pauli matrices in the order (x, y, z).

    Frozen, and it keeps a read-only copy of `matrices` (the caller's array
    is left as it was), so the tables derived from it cannot go stale: its
    `trace_columns` and `structure_constants` are built on first use and
    cached on the basis for its lifetime, the structure constants taking
    16 m**3 bytes, m = d**2 - 1.  Compared by identity.
    """

    d: int
    matrices: np.ndarray  # (d**2 - 1, d, d) complex, read-only

    def __post_init__(self):
        matrices = np.array(self.matrices)
        matrices.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)

    @cached_property
    def _trace_columns(self) -> np.ndarray:
        m, d = self.matrices.shape[0], self.d
        columns = self.matrices.transpose(0, 2, 1).reshape(m, d * d)
        columns.setflags(write=False)
        return columns.T

    @cached_property
    def _structure_constants(self) -> "StructureConstants":
        return _triple_traces(self)


@dataclass(frozen=True)
class StructureConstants:
    """f (totally antisymmetric) and dsym (totally symmetric) rank-3 arrays.

    Defined by Tr(sigma_a sigma_b sigma_c) = 2 dsym_abc + 2i f_abc.  Dense
    storage: the two arrays take 16 m**3 bytes together, 0.7 MB at d = 6,
    4.0 MB at d = 8 and 15.5 MB at d = 10, and about 6.7 MB for all of
    d = 2..8.  They are computed with O(d**8) flops of BLAS matmuls: on one
    thread of a shared 2-vCPU Xeon host (numpy 2.4, OpenBLAS), medians of 15
    runs: 1.5 ms at d = 6, 10 ms at d = 8 and 45 ms at d = 10.  Built once
    per basis, so once per d for the Gell-Mann bases of `build_su_basis`.

    Frozen, with both arrays read-only, so the sparse view of dsym that
    `star_product` reads, built on its first call and cached, cannot go
    stale.
    """

    d: int
    f: np.ndarray     # (m, m, m) real, m = d**2 - 1
    dsym: np.ndarray  # (m, m, m) real

    @cached_property
    def _dsym_entries(self) -> tuple:
        """(a, b, c, dsym_abc) over the nonzero entries of dsym."""
        a, b, c = np.nonzero(self.dsym)
        return a, b, c, self.dsym[a, b, c]


@cache
def build_su_basis(d: int) -> SuBasis:
    """Construct the generalized Gell-Mann basis for su(d).

    The result is deterministic, every matrix is Hermitian and traceless,
    and Tr(sigma_a sigma_b) = 2 delta_ab holds exactly up to roundoff.
    Built once per d and shared, with the tables cached on it: every call
    for the same d returns the same read-only basis.

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
    return SuBasis(d=d, matrices=mats)


def trace_columns(basis: SuBasis) -> np.ndarray:
    """The (d**2, m) matrix T with Tr(X sigma_a) = (X.reshape(d**2) @ T)_a
    for any d x d matrix X: column a is sigma_a transposed and flattened,
    since Tr(X sigma_a) = sum_ij X_ij (sigma_a)_ji.  Built once per basis
    and read-only, 16 d**2 m bytes."""
    return basis._trace_columns


def structure_constants(basis: SuBasis) -> StructureConstants:
    """f_abc = Im Tr(sigma_a sigma_b sigma_c) / 2 and the symmetric
    counterpart dsym_abc = Re Tr(sigma_a sigma_b sigma_c) / 2.

    Computed on the first call for a basis and cached on it: every later
    call returns the same read-only object.
    """
    return basis._structure_constants


def _triple_traces(basis: SuBasis) -> StructureConstants:
    """The structure constants from the triple traces, with both arrays
    read-only.

    Each block of rows a is two matmuls: one forms the products
    sigma_a sigma_b of the block against all b, the other contracts their
    flattened form with `trace_columns`; only one block of complex traces
    exists at a time.
    """
    S = basis.matrices
    m, d = S.shape[0], basis.d
    columns = trace_columns(basis)
    # (d, m*d): row j holds (sigma_b)_jk for every (b, k)
    right = S.transpose(1, 0, 2).reshape(d, m * d)
    f = np.empty((m, m, m))
    dsym = np.empty((m, m, m))
    for a0 in range(0, m, SC_ROW_BLOCK):
        rows = S[a0:a0 + SC_ROW_BLOCK]
        B = len(rows)
        products = ((rows.reshape(B * d, d) @ right)
                    .reshape(B, d, m, d).transpose(0, 2, 1, 3))
        triple = (products.reshape(-1, d * d) @ columns).reshape(B, m, m)
        f[a0:a0 + B] = triple.imag / 2.0
        dsym[a0:a0 + B] = triple.real / 2.0
    f.setflags(write=False)
    dsym.setflags(write=False)
    return StructureConstants(d=basis.d, f=f, dsym=dsym)


def star_product(r1: np.ndarray, r2: np.ndarray,
                 sc: StructureConstants) -> np.ndarray:
    """Symmetric star product (r1 * r2)_c = dsym_abc r1_a r2_b.

    Sums over the nonzero entries of dsym only (cached on `sc` on the first
    call), so the cost grows with their number: 2,610 of the 250,047 at
    d = 8 in the Gell-Mann basis.  A dense dsym, for example in a rotated
    basis, gives the same result but gains nothing: at d = 8 a call then
    takes milliseconds, where a dense contraction takes about 0.1 ms.
    Identically zero for d = 2, where dsym vanishes.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    m = sc.d * sc.d - 1
    if r1.shape != (m,) or r2.shape != (m,):
        raise ValueError(
            f"star_product needs two vectors of length {m}, "
            f"got {r1.shape} and {r2.shape}")
    a, b, c, v = sc._dsym_entries
    return np.bincount(c, weights=v * r1[a] * r2[b], minlength=m)
