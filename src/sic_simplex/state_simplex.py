"""Quantum states as points of the probability simplex of a SIC-POVM.

Measuring a SIC-POVM on a state rho gives probabilities
p_i = Tr(E_i rho) = 1/d**2 + ((d+1)/d**2) e_i . r, and embedding them in the
regular simplex with vertices t_i = (d+1) e_i sends every state to the point
s = sum_i p_i t_i.  With this scaling s equals the Bloch vector r itself, so
the set of simplex points realized by quantum states coincides with the set
of Bloch vectors.  `verify_b_equals_q` checks the identity numerically;
`geometry_report` collects the radii and facet tangency data of the
pure-state sphere; `simulate_tomography` reconstructs states from sampled
SIC outcomes through the inverse maps.
"""

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bloch, simplex_geometry
from .simplex_geometry import SimplexFrame, facet_distance
from .sic_povm import SicPovm, Fiducial, build_sic, get_fiducial
from .su_basis import SuBasis, StructureConstants, build_su_basis, structure_constants

OUTSIDE_SIMPLEX = "outside_simplex"
IN_SIMPLEX_NOT_STATE = "in_simplex_not_state"
MIXED_STATE = "mixed_state"
PURE_STATE = "pure_state"

# bytes of the (N, d, d) complex state stack of one batched call in the
# sampling sweeps; no array of a block is larger.  Small blocks keep the
# sweeps' memory flat in the sample count, and `_keep_block_pages` lets
# glibc keep a block's pages mapped for the next block, so a warm sweep
# takes no page faults
SAMPLE_BLOCK_BYTES = 128 * 1024
# smallest eigenvalue below -this makes a sphere point a non-state witness
MIN_WITNESS_NEGATIVITY = 1e-6
# candidate sphere points find_nonstate_sphere_point tries before it fails
WITNESS_TRIES = 100


@functools.cache
def _keep_block_pages() -> None:
    """Allocate and free one untouched array of 8 blocks, once per process.

    Under glibc's malloc, freeing an mmapped chunk raises the mmap threshold
    to its size and the trim threshold to twice that (mallopt(3), NOTES).
    Every array of a block then comes from the heap, and the heap top is no
    longer trimmed when a block's arrays are freed, so the next block does
    not fault the same pages back in.  Nothing is written, so no page is
    touched; under another allocator, or with fixed thresholds, this does
    nothing.
    """
    np.empty(8 * SAMPLE_BLOCK_BYTES, dtype=np.uint8)


def sample_blocks(samples: int, d: int) -> Iterator[int]:
    """Sizes of the batched calls that together draw `samples` d x d states,
    yielded one at a time.

    Each block holds as many states as fit one (N, d, d) complex stack in
    `SAMPLE_BLOCK_BYTES`, and at least one; only the last block is shorter.
    The draws do not depend on the blocking, and the sweeps' memory is flat
    in `samples`.
    """
    _keep_block_pages()
    per_state = d * d * np.dtype(complex).itemsize
    per_block = max(1, SAMPLE_BLOCK_BYTES // per_state)
    for k in range(0, samples, per_block):
        yield min(per_block, samples - k)


@dataclass
class QuantumSimplexContext:
    """Everything needed to move between states, probabilities and points:
    the su(d) basis with its structure constants, a SIC, and the simplex
    frame t_i = (d+1) e_i spanned by the SIC Bloch directions."""

    d: int
    basis: SuBasis
    sc: StructureConstants
    sic: SicPovm
    frame: SimplexFrame


def build_context(d: int, fiducial: Fiducial | None = None, seed: int = 0,
                  catalog_path: str | None = None) -> QuantumSimplexContext:
    """Assemble a context for dimension d.

    Without an explicit fiducial this uses the builtin one for d = 2 and the
    catalog/search machinery otherwise.
    """
    basis = build_su_basis(d)
    if fiducial is None:
        fiducial = get_fiducial(d, seed=seed, catalog_path=catalog_path)
    sic = build_sic(fiducial, basis)
    sc = structure_constants(basis)
    frame = SimplexFrame(n=d * d - 1, vertices=(d + 1.0) * sic.bloch_dirs)
    return QuantumSimplexContext(d=d, basis=basis, sc=sc, sic=sic, frame=frame)


def state_to_probabilities(rho: np.ndarray, ctx: QuantumSimplexContext) -> np.ndarray:
    """SIC outcome probabilities p_i = Tr(E_i rho), via the Bloch form
    p_i = 1/d**2 + ((d+1)/d**2) e_i . r.

    `rho` may carry leading batch axes, (..., d, d) -> (..., d**2).
    """
    return _bloch_to_probabilities(bloch.to_bloch(rho, ctx.basis), ctx)


def _bloch_to_probabilities(r: np.ndarray, ctx: QuantumSimplexContext) -> np.ndarray:
    """p_i = 1/d**2 + ((d+1)/d**2) e_i . r for Bloch vectors r, (..., m) ->
    (..., d**2)."""
    d = ctx.d
    p = r @ ctx.sic.bloch_dirs.T
    p *= (d + 1.0) / d ** 2
    p += 1.0 / d ** 2
    return p


def probabilities_to_point(p: np.ndarray, ctx: QuantumSimplexContext) -> np.ndarray:
    """Simplex point s = sum_i p_i t_i for the context frame; batches as
    `simplex_geometry.to_point` does."""
    return simplex_geometry.to_point(p, ctx.frame)


def point_to_state(s: np.ndarray, ctx: QuantumSimplexContext) -> np.ndarray:
    """Candidate density matrix for a simplex point (the point doubles as
    the Bloch vector); PSD only if the point actually represents a state."""
    return bloch.from_bloch(np.asarray(s, dtype=float), ctx.basis)


def verify_b_equals_q(ctx: QuantumSimplexContext, samples: int, seed) -> float:
    """Max | (s - r) |_inf over Ginibre-sampled states, where s is the
    simplex point of the state's SIC probabilities and r its Bloch vector.
    The two should agree to roundoff for any dimension; NaN anywhere makes
    the result NaN.

    The states are drawn and mapped in the blocks of `sample_blocks`, and
    |s - r| is formed in place in s, so no array outlives its block.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for size in sample_blocks(samples, ctx.d):
        rho = bloch.random_density_matrix(ctx.d, rng, size=size)
        r = bloch.to_bloch(rho, ctx.basis)
        s = probabilities_to_point(_bloch_to_probabilities(r, ctx), ctx)
        s -= r
        worst = np.maximum.reduce(np.abs(s, out=s), axis=None, initial=worst)
    return float(worst)


def verify_report(ctx: QuantumSimplexContext, samples: int, seed,
                  tol: float) -> dict:
    """The object `verify` writes for one d: the `_radii` fields, `samples`,
    `seed`, three deviations, `tolerance`, and `passed` when all are below
    `tol` (NaN fails).  The theorem sweep is `verify_b_equals_q`.  Haar pure
    states, drawn from `seed + 1` in the blocks of `sample_blocks`, give the
    largest deviations of |s|**2 from (d-1)/(d+1) and of sum_i p_i**2 from
    sum_p2_pure; both follow from the frame and the basis normalization."""
    d = ctx.d
    geo = _radii(d)
    theorem_dev = verify_b_equals_q(ctx, samples=samples, seed=seed)
    rng = np.random.default_rng(seed + 1)
    norm_dev = p2_dev = 0.0
    for size in sample_blocks(samples, d):
        p = state_to_probabilities(
            bloch.random_pure_state(d, rng, size=size), ctx)
        s = probabilities_to_point(p, ctx)
        norm = np.einsum('ka,ka->k', s, s) - (d - 1.0) / (d + 1.0)
        norm_dev = np.maximum.reduce(np.abs(norm, out=norm), axis=None,
                                     initial=norm_dev)
        p2 = np.einsum('ki,ki->k', p, p) - geo["sum_p2_pure"]
        p2_dev = np.maximum.reduce(np.abs(p2, out=p2), axis=None,
                                   initial=p2_dev)
    return {**geo, "samples": samples, "seed": seed,
            "max_theorem_deviation": theorem_dev,
            "max_pure_norm_deviation": float(norm_dev),
            "max_pure_sum_p2_deviation": float(p2_dev), "tolerance": tol,
            # np.maximum, unlike max(), turns a NaN deviation into a failure
            "passed": bool(np.maximum.reduce(
                (theorem_dev, norm_dev, p2_dev)) < tol)}


def geometry_report(d: int) -> dict:
    """Radii and facet data of the state body inside the outcome simplex, as
    the JSON object `geometry` writes: the fields of `_radii`, then d_m,
    the distances to the m-facets, m = 0..d**2-1, and pure_sphere_is_inner,
    true for d = 2 (and only then), where the pure sphere is the simplex's
    inscribed sphere.
    """
    n = d * d - 1
    return {**_radii(d), "d_m": [facet_distance(n, m) for m in range(n + 1)],
            "pure_sphere_is_inner": d == 2}


def _radii(d: int) -> dict:
    """The fields `geometry` and `verify` share, `geometry_report` without
    d_m and pure_sphere_is_inner: d, R_out, R_in, R_pure, m_pure and
    sum_p2_pure, checked against each other.

    R_pure is the radius of the sphere carrying the pure states; it touches
    the facets of dimension m_pure = (d+2)(d-1)/2, and every pure state has
    sum_i p_i^2 = 2/(d(d+1)).  Forms no d**2-entry list, so `verify` never
    builds the facet table it does not write.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    n = d * d - 1
    r_out = facet_distance(n, 0)
    r_in = facet_distance(n, n - 1)
    r_pure = math.sqrt((d - 1.0) / (d + 1.0))
    m_pure = (d + 2) * (d - 1) // 2
    # internal consistency before handing out numbers, as raises that
    # python -O keeps, each written so that NaN fails it
    if not abs(facet_distance(n, m_pure) - r_pure) < 1e-12:
        raise RuntimeError(f"d={d}: the m_pure-facet distance is not R_pure")
    if not (r_in <= r_pure + 1e-15 and r_pure <= r_out + 1e-15):
        raise RuntimeError(f"d={d}: R_pure lies outside [R_in, R_out]")
    if not ((abs(r_in - r_pure) < 1e-15) == (d == 2)):
        raise RuntimeError(f"d={d}: R_in == R_pure must hold for d = 2 only")
    return {"d": d, "R_out": r_out, "R_in": r_in, "R_pure": r_pure,
            "m_pure": m_pure, "sum_p2_pure": 2.0 / (d * (d + 1.0))}


def classify_point(s: np.ndarray, ctx: QuantumSimplexContext) -> str:
    """Classify a point of R^(d**2-1) relative to the simplex and the states.

    Tests run cheapest-and-tightest first: simplex membership (recovered
    probabilities in [0, 1] within `MEMBERSHIP_TOL`), then positivity of the
    candidate matrix (`PSD_TOL`), then purity of its Bloch vector
    (`PURITY_TOL`; the star product is formed only on the pure sphere).  A
    point with a NaN or infinite coordinate raises ValueError.
    """
    s = np.asarray(s, dtype=float)
    _, inside = simplex_geometry.to_probabilities(s, ctx.frame)
    if not inside:
        return OUTSIDE_SIMPLEX
    ok, _ = bloch.is_state(s, ctx.basis)
    if not ok:
        return IN_SIMPLEX_NOT_STATE
    if bloch.is_pure(s, ctx.sc):
        return PURE_STATE
    return MIXED_STATE


def find_nonstate_sphere_point(ctx: QuantumSimplexContext,
                               seed=0) -> np.ndarray:
    """A point on the pure-state sphere, inside the simplex, that is not a
    state.

    Candidates are centroids of (m_pure + 1)-vertex subsets of the frame:
    each is the tangency point of the pure sphere with an m_pure-facet, so
    it sits exactly on the sphere and on the simplex boundary.  For d >= 3
    such centroids generically carry an O(1) negative eigenvalue; for d = 2
    every sphere point is a state and the search fails with RuntimeError.
    """
    rng = np.random.default_rng(seed)
    d = ctx.d
    m_pure = (d + 2) * (d - 1) // 2
    r_pure = math.sqrt((d - 1.0) / (d + 1.0))
    for attempt in range(WITNESS_TRIES):
        if attempt == 0:
            idx = np.arange(m_pure + 1)
        else:
            idx = rng.choice(d * d, size=m_pure + 1, replace=False)
        s = ctx.frame.vertices[idx].mean(axis=0)
        s *= r_pure / np.linalg.norm(s)
        _, inside = simplex_geometry.to_probabilities(s, ctx.frame)
        if not inside:
            continue
        _, min_eig = bloch.is_state(s, ctx.basis)
        if min_eig < -MIN_WITNESS_NEGATIVITY:
            return s
    raise RuntimeError(
        f"no non-state sphere point for d={ctx.d} in {WITNESS_TRIES} tries")


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of the Hermitian difference."""
    eigs = np.linalg.eigvalsh(rho_a - rho_b)
    return float(0.5 * np.add.reduce(np.abs(eigs, out=eigs)))


def project_to_state(rho: np.ndarray) -> np.ndarray:
    """The state nearest to the Hermitian matrix rho in Hilbert-Schmidt norm.

    Keeps rho's eigenvectors and projects its spectrum onto the probability
    simplex: one shift, found from the cumulative sums of the eigenvalues in
    descending order, then clipping at zero (Smolin, Gambetta and Smith,
    arXiv:1106.5458).
    """
    vals, vecs = np.linalg.eigh(rho)
    desc = vals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, desc.size + 1)
    # the eigenvalues kept are a prefix of desc, at least one long; a NaN
    # spectrum keeps none, and shifts[-1] carries its NaN into the result
    kept = np.count_nonzero(desc > shifts)
    vals = np.clip(vals - shifts[kept - 1], 0.0, None)
    proj = (vecs * vals) @ vecs.conj().T
    return 0.5 * (proj + proj.conj().T)


@dataclass
class TomographyResult:
    shots: int
    counts: np.ndarray          # (d**2,) outcome counts
    rho_hat_raw: np.ndarray     # linear-inversion estimate, may be indefinite
    rho_hat_projected: np.ndarray
    trace_distance: float


def simulate_tomography(rho: np.ndarray, ctx: QuantumSimplexContext,
                        shots: int, seed) -> TomographyResult:
    """Sample SIC outcomes from rho and reconstruct it by linear inversion.

    The empirical frequencies map to a simplex point, which is read back as
    a Bloch vector; the raw estimate is then replaced by the nearest state
    in Hilbert-Schmidt norm, `project_to_state`.  Deterministic for a given
    seed.  `shots` must lie in [1, 2**63 - 1], the range of numpy's
    multinomial sampler.
    """
    if not 1 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    rng = np.random.default_rng(seed)
    p = state_to_probabilities(rho, ctx)
    # roundoff can leave tiny negatives; the sampler needs an exact simplex
    p = np.clip(p, 0.0, None)
    p /= np.add.reduce(p)
    counts = rng.multinomial(shots, p)
    p_hat = counts / shots
    s_hat = probabilities_to_point(p_hat, ctx)
    rho_raw = point_to_state(s_hat, ctx)
    rho_proj = project_to_state(rho_raw)
    return TomographyResult(
        shots=shots,
        counts=counts,
        rho_hat_raw=rho_raw,
        rho_hat_projected=rho_proj,
        trace_distance=trace_distance(rho, rho_proj),
    )
