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
# sweeps' memory flat in the sample count and let the allocator reuse heap
# memory from block to block instead of mapping fresh pages for each
SAMPLE_BLOCK_BYTES = 128 * 1024
# smallest eigenvalue below -this makes a sphere point a non-state witness
MIN_WITNESS_NEGATIVITY = 1e-6
# candidate sphere points find_nonstate_sphere_point tries before it fails
WITNESS_TRIES = 100


def sample_blocks(samples: int, d: int) -> list:
    """Sizes of the batched calls that together draw `samples` d x d states.

    Each block holds as many states as fit one (N, d, d) complex stack in
    `SAMPLE_BLOCK_BYTES`, and at least one; only the last block is shorter.
    The draws do not depend on the blocking, and the sweeps' memory is flat
    in `samples`.
    """
    per_state = d * d * np.dtype(complex).itemsize
    per_block = max(1, SAMPLE_BLOCK_BYTES // per_state)
    return [min(per_block, samples - k)
            for k in range(0, samples, per_block)]


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
    # before the structure constants: a wrong-d fiducial is refused cheaply
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
        worst = np.maximum(worst, np.max(np.abs(s, out=s)))
    return float(worst)


def geometry_report(d: int) -> dict:
    """Radii and facet data of the state body inside the outcome simplex, as
    the JSON object `geometry` writes.

    R_pure is the radius of the sphere carrying the pure states; it touches
    the facets of dimension m_pure = (d+2)(d-1)/2, and every pure state has
    sum_i p_i^2 = 2/(d(d+1)).  d_m lists the distances to the m-facets,
    m = 0..d**2-1.  For d = 2 (and only then) the pure sphere is the
    simplex's inscribed sphere.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    n = d * d - 1
    r_out = facet_distance(n, 0)
    r_in = facet_distance(n, n - 1)
    r_pure = float(np.sqrt((d - 1.0) / (d + 1.0)))
    m_pure = (d + 2) * (d - 1) // 2
    # internal consistency before handing out numbers, as raises that
    # python -O keeps, each written so that NaN fails it
    if not abs(facet_distance(n, m_pure) - r_pure) < 1e-12:
        raise RuntimeError(f"d={d}: the m_pure-facet distance is not R_pure")
    if not (r_in <= r_pure + 1e-15 and r_pure <= r_out + 1e-15):
        raise RuntimeError(f"d={d}: R_pure lies outside [R_in, R_out]")
    if not ((abs(r_in - r_pure) < 1e-15) == (d == 2)):
        raise RuntimeError(f"d={d}: R_in == R_pure must hold for d = 2 only")
    return {
        "d": d,
        "R_out": r_out,
        "R_in": r_in,
        "R_pure": r_pure,
        "m_pure": m_pure,
        "d_m": [facet_distance(n, m) for m in range(n + 1)],
        "sum_p2_pure": 2.0 / (d * (d + 1.0)),
        "pure_sphere_is_inner": d == 2,
    }


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
    r_pure = np.sqrt((d - 1.0) / (d + 1.0))
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
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_a - rho_b))))


def project_to_state(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace to 1."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("matrix has no positive spectral weight")
    proj = (vecs * (vals / total)) @ vecs.conj().T
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
    a Bloch vector; the raw estimate is then projected onto the states by
    eigenvalue clipping.  Deterministic for a given seed.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    p = state_to_probabilities(rho, ctx)
    # roundoff can leave tiny negatives; the sampler needs an exact simplex
    p = np.clip(p, 0.0, None)
    p /= p.sum()
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
