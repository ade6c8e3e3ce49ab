"""Regular simplexes in R^n and their correspondence with probability
distributions over n+1 outcomes.

Conventions: the vertex vectors t_i satisfy t_i . t_j = (n+1) delta_ij - 1,
so |t_i| = sqrt(n), sum_i t_i = 0, and a distribution {p_i} maps to the
point s = sum_i p_i t_i with inverse p_i = (s . t_i + 1) / (n+1).
"""

import math
from dataclasses import dataclass

import numpy as np

# tolerance on recovered probability bounds when deciding simplex membership
MEMBERSHIP_TOL = 1e-12


@dataclass
class SimplexFrame:
    """Vertex vectors of a regular n-simplex centered at the origin."""

    n: int
    vertices: np.ndarray  # (n + 1, n) real

    def gram(self) -> np.ndarray:
        return self.vertices @ self.vertices.T


def build_simplex_frame(n: int) -> SimplexFrame:
    """Deterministic vertex coordinates for the regular n-simplex.

    The first n vertices are the rows of the Cholesky factor of the Gram
    matrix G_ij = (n+1) delta_ij - 1, the last is minus their sum.
    """
    if n < 1:
        raise ValueError(f"simplex dimension must be >= 1, got n={n}")
    gram = (n + 1.0) * np.eye(n) - 1.0
    lower = np.linalg.cholesky(gram)
    vertices = np.vstack([lower, -lower.sum(axis=0)])
    return SimplexFrame(n=n, vertices=vertices)


def frame_from_vertices(vertices: np.ndarray, tol: float = 1e-10) -> SimplexFrame:
    """Wrap an explicit (n+1, n) vertex array, validating the Gram relation
    t_i . t_j = (n+1) delta_ij - 1 and the zero-sum property within `tol`;
    NaN fails both checks."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] != vertices.shape[1] + 1:
        raise ValueError(f"expected (n+1, n) vertex array, got {vertices.shape}")
    n = vertices.shape[1]
    gram = vertices @ vertices.T
    expected = (n + 1.0) * np.eye(n + 1) - 1.0
    err = np.max(np.abs(gram - expected))
    if not err <= tol:
        raise ValueError(f"vertex Gram matrix off by {err:.3e} (> {tol:.1e})")
    zsum = np.max(np.abs(vertices.sum(axis=0)))
    if not zsum <= tol:
        raise ValueError(f"vertices do not sum to zero (|sum| = {zsum:.3e})")
    return SimplexFrame(n=n, vertices=vertices)


def to_point(p: np.ndarray, frame: SimplexFrame) -> np.ndarray:
    """Map a distribution over n+1 outcomes to s = sum_i p_i t_i.

    `p` may carry leading batch axes, (..., n+1) -> (..., n); every entry
    must lie in [0, 1] within `MEMBERSHIP_TOL` and every row must sum to 1,
    and NaN fails both checks.  The [0, 1] check reads the min and max of p,
    which NaN propagates to, so it makes no array of p's size.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (frame.n + 1,):
        raise ValueError(f"expected {frame.n + 1} probabilities, got {p.shape}")
    # initial=0.0 leaves both checks unchanged and admits an empty batch
    lo, hi = np.min(p, initial=0.0), np.max(p, initial=0.0)
    if not (lo >= -MEMBERSHIP_TOL and hi <= 1.0 + MEMBERSHIP_TOL):
        raise ValueError("probabilities out of [0, 1]")
    sum_err = float(np.max(np.abs(p.sum(axis=-1) - 1.0), initial=0.0))
    if not sum_err <= 1e-12:
        raise ValueError(f"probabilities sum off 1 by {sum_err:.3e}")
    return p @ frame.vertices


def to_probabilities(s: np.ndarray, frame: SimplexFrame):
    """Recover p_i = (s . t_i + 1) / (n+1) from a point s.

    Returns (p, inside): the full vector is always returned, and `inside`
    flags whether min p and max p lie in [0, 1] within `MEMBERSHIP_TOL`.
    Finite points outside the simplex are flagged, never raised, so callers
    can classify them.

    Raises
    ------
    ValueError
        If s has the wrong length or p is not finite; a NaN or infinite
        coordinate of s always makes p non-finite.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (frame.n,):
        raise ValueError(f"expected point of length {frame.n}, got {s.shape}")
    p = (frame.vertices @ s + 1.0) / (frame.n + 1.0)
    lo, hi = np.minimum.reduce(p), np.maximum.reduce(p)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("recovered probabilities are not finite")
    inside = bool(lo >= -MEMBERSHIP_TOL and hi <= 1.0 + MEMBERSHIP_TOL)
    return p, inside


def facet_distance(n: int, m: int) -> float:
    """Distance sqrt((n - m) / (m + 1)) from the center to the m-facets.

    Strictly decreasing in m: sqrt(n) at the vertices (m = 0) down to 0 at
    the full simplex (m = n); m = n - 1 gives the inscribed-sphere radius.
    """
    if not 0 <= m <= n:
        raise ValueError(f"facet dimension m={m} out of range [0, {n}]")
    return float(np.sqrt((n - m) / (m + 1.0)))


def sum_p_squared(s: np.ndarray, frame: SimplexFrame) -> float:
    """Sum of squared recovered probabilities, via sum p_i^2 = (|s|^2 + 1)/(n+1)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (frame.n,):
        raise ValueError(f"expected point of length {frame.n}, got {s.shape}")
    return float((s @ s + 1.0) / (frame.n + 1.0))
