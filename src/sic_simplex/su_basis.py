"""Orthogonal traceless Hermitian basis of su(d) and its structure constants.

The basis consists of the generalized Gell-Mann matrices, normalized so that
Tr(sigma_a sigma_b) = 2 delta_ab.  The totally antisymmetric and totally
symmetric structure constants f_abc, d_abc are read off from the triple
traces Tr(sigma_a sigma_b sigma_c) = 2 d_abc + 2i f_abc.  No table of them
is kept: the star product, the one sum over d_abc the package forms, is a
matrix identity on the basis itself.  The dense f and d tables, 16 m**3
bytes with m = d**2 - 1, are references built only when read.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class SuBasis:
    """Ordered basis {sigma_a} of traceless Hermitian d x d matrices.

    Ordering: symmetric off-diagonal pairs E_jk + E_kj for j < k
    (lexicographic), then antisymmetric pairs -i(E_jk - E_kj), then the
    d - 1 diagonal matrices sqrt(2/(l(l+1))) (sum_{m<=l} E_mm - l E_{l+1,l+1}).
    For d = 2 this reproduces the Pauli matrices in the order (x, y, z).

    Frozen, and it keeps a read-only copy of `matrices` (the caller's array
    is left as it was), so what is derived from it cannot go stale: its
    `trace_columns` table and `structure_constants` object are built on
    first use and cached on the basis for its lifetime.  Compared by
    identity.
    """

    d: int
    matrices: np.ndarray  # (d**2 - 1, d, d) complex, read-only

    def __post_init__(self):
        matrices = np.array(self.matrices)
        matrices.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)

    @cached_property
    def trace_columns(self) -> np.ndarray:
        """(d**2, m) T, Tr(X sigma_a) = (X.reshape(d**2) @ T)_a for any d x d
        X: column a is sigma_a transposed and flattened, as Tr(X sigma_a) =
        sum_ij X_ij (sigma_a)_ji.  Read-only, 16 d**2 m bytes."""
        m, d = self.matrices.shape[0], self.d
        columns = self.matrices.transpose(0, 2, 1).reshape(m, d * d)
        columns.setflags(write=False)
        return columns.T

    @cached_property
    def _structure_constants(self) -> "StructureConstants":
        return StructureConstants(d=self.d, basis=self)


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """The structure constants of a basis, defined by
    Tr(sigma_a sigma_b sigma_c) = 2 dsym_abc + 2i f_abc.

    Holds the basis and no table: `star_product` forms its sums from the
    basis matrices, so making this object costs nothing.

    `f` and `dsym` are the dense (m, m, m) arrays, m = d**2 - 1, read-only
    references that nothing in the package reads: the first read of either
    runs the triple-trace kernel, O(d**8) flops in two BLAS matmuls that
    peak at about twice the tables, and caches both, 16 m**3 bytes together
    (4.0 MB at d = 8, 265 MB at d = 16).  Frozen, so neither can go stale.
    """

    d: int
    basis: SuBasis = field(repr=False)

    @cached_property
    def _dense(self) -> tuple:
        return _dense_tables(self.basis)

    @property
    def f(self) -> np.ndarray:
        """(m, m, m) real, f_abc = Im Tr(sigma_a sigma_b sigma_c) / 2."""
        return self._dense[0]

    @property
    def dsym(self) -> np.ndarray:
        """(m, m, m) real, dsym_abc = Re Tr(sigma_a sigma_b sigma_c) / 2."""
        return self._dense[1]


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


def structure_constants(basis: SuBasis) -> StructureConstants:
    """f_abc = Im Tr(sigma_a sigma_b sigma_c) / 2 and the symmetric
    counterpart dsym_abc = Re Tr(sigma_a sigma_b sigma_c) / 2, as a
    `StructureConstants` whose dense tables are built only when read.

    Made on the first call for a basis, with no kernel run, and cached on
    it: every later call returns the same read-only object.
    """
    return basis._structure_constants


def _dense_tables(basis: SuBasis) -> tuple:
    """The dense (f, dsym), both read-only, from the complex triple traces
    Tr(sigma_a sigma_b sigma_c): one matmul forms every sigma_a sigma_b as
    an (m**2, d**2) complex array, transient and 16 m**2 d**2 bytes, about
    the size of the two tables, and one more contracts it with
    `trace_columns`."""
    S = basis.matrices
    m, d = S.shape[0], basis.d
    triple = ((S.reshape(m * d, d) @ S.transpose(1, 0, 2).reshape(d, m * d))
              .reshape(m, d, m, d).transpose(0, 2, 1, 3).reshape(-1, d * d)
              @ basis.trace_columns).reshape(m, m, m)
    f = triple.imag / 2.0
    dsym = triple.real / 2.0
    f.setflags(write=False)
    dsym.setflags(write=False)
    return f, dsym


def star_product(r1: np.ndarray, r2: np.ndarray,
                 sc: StructureConstants) -> np.ndarray:
    """Symmetric star product (r1 * r2)_c = dsym_abc r1_a r2_b.

    By {sigma_a, sigma_b} = (4/d) delta_ab I + 2 dsym_abc sigma_c this is
    (r1 * r2)_c = Re Tr(A B sigma_c) / 2 with A = r1 . sigma and
    B = r2 . sigma, each one product with the flattened basis as in
    `from_bloch`, and the traces one product with `trace_columns`.  So it
    costs O(d**4) flops in any basis and reads no dsym table; B is A when
    r2 is r1.  For d = 2, where dsym vanishes, it is zero up to roundoff.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    d = sc.d
    m = d * d - 1
    if r1.shape != (m,) or r2.shape != (m,):
        raise ValueError(
            f"star_product needs two vectors of length {m}, "
            f"got {r1.shape} and {r2.shape}")
    flat = sc.basis.matrices.reshape(m, d * d)
    A = (r1 @ flat).reshape(d, d)
    B = A if r2 is r1 else (r2 @ flat).reshape(d, d)
    return 0.5 * ((A @ B).reshape(-1) @ sc.basis.trace_columns).real
