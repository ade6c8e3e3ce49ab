"""SIC-POVM construction from Weyl-Heisenberg orbits of a fiducial vector.

A SIC-POVM for dimension d is a set of d**2 effects E_i = |psi_i><psi_i| / d
resolving the identity with equal pairwise overlaps
Tr(E_i E_j) = (d delta_ij + 1) / (d**2 (d+1)).  Here the |psi_i> are the
orbit of a fiducial |psi> under the displacement operators
D_{k,l} = tau^{kl} X^k Z^l (tau = -exp(i pi / d)), and the fiducial is found
numerically by driving the frame potential

    sum_{i != j} (|<psi_i|psi_j>|^2 - 1/(d+1))^2

to zero with a multi-start Gauss-Newton iteration on the unit
sphere.  Each restart stops once its worst deviation reaches the roundoff
floor; the first restart that meets the target residual wins and ends the
search, else the smallest residual wins.  For d = 2 an exact fiducial
(Bloch direction (1,1,1)/sqrt(3), the regular tetrahedron) is built in.
A fiducial's residual is always recomputed from its vector, never taken
from storage.
"""

import contextlib
import functools
import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bloch import to_bloch
from .su_basis import SuBasis

# fiducials worse than this are refused by build_sic
MAX_BUILD_RESIDUAL = 1e-6
DEFAULT_TARGET_RESIDUAL = 1e-10
# a restart whose worst deviation max|w_D| is at or below this has nothing
# left to gain: it sits at roundoff, four decades under the default target
POLISH_FLOOR = 1e-14
# Gauss-Newton steps a restart may take before it ends short of the floor
MAX_POLISH_STEPS = 60
# ridge on the normal equations: the global phase is a null direction of
# the Jacobian, so J^T J alone is singular
_RIDGE = 1e-12

log = logging.getLogger("sic_simplex")


@dataclass(frozen=True, eq=False)
class Fiducial:
    """Unit vector whose displacement orbit is (close to) a SIC.

    `source` records provenance ("builtin", "search" or "manual"); for
    searches, `seed`/`config` pin the run and `converged` records whether
    the target residual was reached.  Frozen, with a read-only copy of
    `psi` (the caller's array is left as it was), so `d`, the `orbit` and
    its `residual` (worst overlap deviation, see `sic_residual`) are read
    off `psi` and cannot disagree with it; the orbit and residual are
    computed on first use and cached.  Compared by identity.
    """

    psi: np.ndarray  # (d,) complex, unit norm, read-only
    source: str = "manual"
    seed: int | None = None
    config: dict | None = None
    converged: bool | None = None

    def __post_init__(self):
        psi = np.array(self.psi, dtype=complex)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def d(self) -> int:
        return self.psi.shape[0]

    @functools.cached_property
    def orbit(self) -> np.ndarray:
        orbit = wh_orbit(self.psi)
        orbit.setflags(write=False)
        return orbit

    @functools.cached_property
    def residual(self) -> float:
        return sic_residual(self.orbit)


@dataclass
class SicPovm:
    """d**2 effects E_i with their Bloch direction vectors e_i."""

    d: int
    effects: np.ndarray     # (d**2, d, d) complex
    bloch_dirs: np.ndarray  # (d**2, d**2 - 1) real
    fiducial: Fiducial = field(repr=False)


@functools.cache
def displacement_operators(d: int) -> np.ndarray:
    """All D_{k,l} = tau^{kl} X^k Z^l as an array indexed by i = k*d + l.

    X|j> = |j+1 mod d>, Z|j> = omega^j |j> with omega = exp(2 pi i / d),
    and tau = -exp(i pi / d) keeps the orbit well defined for even d.
    Built once per d and shared, so the array is read-only.
    """
    tau = -np.exp(1j * np.pi / d)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    shift_pow = [np.linalg.matrix_power(shift, k) for k in range(d)]
    clock_pow = [np.linalg.matrix_power(clock, l) for l in range(d)]
    ops = np.empty((d * d, d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            ops[k * d + l] = tau ** (k * l) * (shift_pow[k] @ clock_pow[l])
    ops.flags.writeable = False
    return ops


def wh_orbit(psi: np.ndarray) -> np.ndarray:
    """Orbit D_{k,l} |psi> for all (k, l), ordered by i = k*d + l."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum('aij,j->ai', displacement_operators(psi.shape[0]), psi)


def sic_residual(orbit: np.ndarray) -> float:
    """Worst overlap deviation max_{i != j} | |<psi_i|psi_j>|^2 - 1/(d+1) |."""
    n, d = orbit.shape
    overlaps = np.abs(orbit.conj() @ orbit.T) ** 2
    off = ~np.eye(n, dtype=bool)
    return float(np.max(np.abs(overlaps[off] - 1.0 / (d + 1.0))))


def qubit_tetrahedron_fiducial() -> Fiducial:
    """Exact d = 2 fiducial: the pure state with Bloch direction (1,1,1)/sqrt(3).

    Its orbit under {I, Z, X, XZ} is the regular tetrahedron on the Bloch
    sphere, an exact SIC.
    """
    cos_theta = 1.0 / np.sqrt(3.0)
    psi = np.array([np.sqrt((1.0 + cos_theta) / 2.0),
                    np.exp(1j * np.pi / 4.0) * np.sqrt((1.0 - cos_theta) / 2.0)])
    return Fiducial(psi=psi, source="builtin", converged=True)


# ---------------------------------------------------------------------------
# fiducial search
#
# By Weyl-Heisenberg covariance the orbit overlaps |<psi_i|psi_j>|^2 only
# depend on the displacement difference, so the search minimizes the reduced
# objective over the d**2 - 1 nonzero displacements:
#
#     phi(psi) = sum_{D != I} w_D^2,   w_D = |<psi|D|psi>|^2 - 1/(d+1)
#
# (proportional to the full frame potential on the orbit).  Each restart runs
# a plain Gauss-Newton iteration on the deviation vector w straight from a
# random start, renormalizing to the unit sphere after every step; near a
# zero of phi it converges quadratically to the machine floor, and it stops
# once max|w_D| <= POLISH_FLOOR.  max|w_D| is the orbit's sic_residual up to
# roundoff, so a restart that stops there has already met the target.  The
# restarts run one at a time: the first whose orbit residual meets the target
# ends the search, and only when none does is the smallest residual kept.
# ---------------------------------------------------------------------------

def _deviations(disp: np.ndarray, psi: np.ndarray, target: float):
    """D psi for every displacement D, the overlaps c_D = <psi|D|psi> and
    the deviations w_D = |c_D|^2 - target."""
    d_psi = np.einsum('aij,j->ai', disp, psi)
    c = d_psi @ psi.conj()
    return d_psi, c, np.abs(c) ** 2 - target


def _residuals_jacobian(disp, psi, target):
    """Deviation vector w and its Jacobian 2 [Re h, Im h] wrt
    (Re psi, Im psi), where h_D = dw_D/dpsi*."""
    d_psi, c, w = _deviations(disp, psi, target)
    ddag_psi = np.einsum('aji,j->ai', disp.conj(), psi)
    h = c.conj()[:, None] * d_psi + c[:, None] * ddag_psi
    return w, 2.0 * np.hstack([h.real, h.imag])


def _polish(disp, psi, target):
    """Gauss-Newton on the deviation vector from the normalized start `psi`:
    each step solves (J^T J + _RIDGE I) dx = -J^T w and takes the first of
    30 halvings of dx that decreases phi, renormalized.  Ends once max|w_D|
    <= POLISH_FLOOR, after MAX_POLISH_STEPS steps, when no halving helps or
    when the solve fails.  Returns (psi, steps taken, final max|w_D|)."""
    psi = psi / np.linalg.norm(psi)
    d = psi.shape[0]
    for iters in range(MAX_POLISH_STEPS):
        w, jac = _residuals_jacobian(disp, psi, target)
        if np.max(np.abs(w)) <= POLISH_FLOOR:
            break
        phi = float(np.sum(w ** 2))
        try:
            dx = np.linalg.solve(jac.T @ jac + _RIDGE * np.eye(2 * d),
                                 -jac.T @ w)
        except np.linalg.LinAlgError:
            break
        step = dx[:d] + 1j * dx[d:]
        for _ in range(30):
            cand = psi + step
            cand /= np.linalg.norm(cand)
            w_cand = _deviations(disp, cand, target)[2]
            if np.sum(w_cand ** 2) < phi:
                break
            step *= 0.5
        else:
            break
        psi, w = cand, w_cand
    else:
        iters = MAX_POLISH_STEPS
    # w is the deviation vector of psi on every exit
    return psi, iters, float(np.max(np.abs(w)))


def find_fiducial(d: int, seed: int = 0, restarts: int = 10,
                  target_residual: float = DEFAULT_TARGET_RESIDUAL) -> Fiducial:
    """Multi-start frame-potential minimization over unit vectors in C^d.

    The restarts run one at a time, each polishing one random complex
    Gaussian start (see `_polish`), and `restarts` is an upper bound: the
    first restart whose orbit residual meets `target_residual` wins and ends
    the search.  When none does, the smallest residual wins (ties by lowest
    restart index, NaN last), and the fiducial is still returned with
    `converged = False` rather than raising.  The result is deterministic in
    (d, seed, restarts, target_residual).  Each restart logs one DEBUG
    record on the "sic_simplex" logger.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    disp = displacement_operators(d)
    target = 1.0 / (d + 1.0)
    psis, residuals = [], []
    for restart in range(restarts):
        start = rng.normal(size=d) + 1j * rng.normal(size=d)
        t0 = time.perf_counter()
        psi, iterations, max_dev = _polish(disp[1:], start, target)
        psis.append(psi)
        residuals.append(sic_residual(wh_orbit(psi)))
        done = residuals[-1] <= target_residual
        log.debug("search restart d=%d restart=%d iterations=%d "
                  "max_dev=%.3e residual=%.3e wall_ms=%.3f ended_search=%s",
                  d, restart, iterations, max_dev, residuals[-1],
                  1e3 * (time.perf_counter() - t0), done)
        if done:
            break
    # every earlier restart missed the target, so a converged last restart
    # is also the smallest residual; NaN ranks last, and when all are NaN
    # the first restart stands
    residuals = np.array(residuals)
    best = int(np.argmin(np.where(np.isnan(residuals), np.inf, residuals)))
    config = {"restarts": restarts, "target_residual": target_residual}
    return Fiducial(psi=psis[best], source="search", seed=seed, config=config,
                    converged=bool(residuals[best] <= target_residual))


def build_sic(fid: Fiducial, basis: SuBasis) -> SicPovm:
    """Effects E_i = |psi_i><psi_i| / d and Bloch directions e_i of d*E_i.

    Reads the fiducial's cached `orbit` and `residual`, so a fiducial that
    `get_fiducial` already checked forms its orbit once.  Refuses fiducials
    whose residual exceeds `MAX_BUILD_RESIDUAL` (or is NaN): the resulting
    operators would not resolve the identity to any useful accuracy.
    """
    if basis.d != fid.d:
        raise ValueError(f"basis dimension {basis.d} != fiducial dimension {fid.d}")
    if not fid.residual <= MAX_BUILD_RESIDUAL:
        raise ValueError(f"fiducial residual {fid.residual:.3e} exceeds "
                         f"{MAX_BUILD_RESIDUAL:.1e}")
    orbit = fid.orbit
    effects = np.einsum('ai,aj->aij', orbit, orbit.conj()) / fid.d
    # one batched call: the d**2 effects are already held in full
    bloch_dirs = to_bloch(fid.d * effects, basis)
    return SicPovm(d=fid.d, effects=effects, bloch_dirs=bloch_dirs, fiducial=fid)


# ---------------------------------------------------------------------------
# fiducial catalog (JSON file keyed by dimension)
# ---------------------------------------------------------------------------

def default_catalog_path() -> str:
    env = os.environ.get("SIC_SIMPLEX_CATALOG")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "sic_simplex",
                        "fiducials.json")


def fiducial_to_json(fid: Fiducial) -> dict:
    return {
        "d": fid.d,
        "psi": [[float(z.real), float(z.imag)] for z in fid.psi],
        "residual": float(fid.residual),
        "seed": fid.seed,
        "config": fid.config,
        "source": fid.source,
        "converged": fid.converged,
    }


def fiducial_from_json(obj: dict) -> Fiducial:
    """Fiducial from a catalog entry; its "residual" field is not read."""
    if not isinstance(obj, dict):
        raise ValueError(f"fiducial entry is not a JSON object: {obj!r:.40}")
    missing = sorted({"d", "psi"} - obj.keys())
    if missing:
        raise ValueError(f"fiducial entry has no {', '.join(missing)} field")
    arr = np.array(obj["psi"], dtype=float)
    d = int(obj["d"])
    if arr.shape != (d, 2):
        raise ValueError(f"malformed psi entry: shape {arr.shape} for d={d}")
    psi = arr[:, 0] + 1j * arr[:, 1]
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"fiducial vector norm {nrm!r} != 1")
    return Fiducial(psi=psi, source=obj.get("source", "manual"),
                    seed=obj.get("seed"), config=obj.get("config"),
                    converged=obj.get("converged"))


def load_catalog(path: str) -> dict:
    """The entries of a catalog file as stored, `str(d)` -> JSON value;
    empty if the file is absent, empty or only whitespace.

    No entry is parsed here: `get_fiducial` parses only the one it looks
    up, and `record_fiducial` writes the others back unchanged.

    Raises ValueError when the file is not JSON, or is JSON but not an
    object of entries."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        return {}
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError(f"catalog is a JSON {type(raw).__name__}, "
                         "not an object")
    return raw


def save_catalog(catalog: dict, path: str) -> None:
    """Write stored entries (`str(d)` -> JSON value, as `load_catalog`
    returns them) atomically: dump to a temporary file beside `path`, then
    rename it over `path`, so readers never see a partial file and a failed
    write leaves the previous catalog untouched."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(catalog, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def record_fiducial(fid: Fiducial, path: str | None = None) -> None:
    """Persist a search result into the catalog at `path`, best effort.

    Only what a lookup would accept is written: a converged fiducial whose
    orbit residual meets `DEFAULT_TARGET_RESIDUAL` (else one WARNING when it
    claims convergence).  The file is re-read just before the write, and
    every other entry goes back as stored, including ones `get_fiducial`
    would refuse.  An unreadable file is replaced by a catalog holding only
    this entry, and a failed write is logged, each with one WARNING.
    """
    if not fid.converged:
        return
    if not fid.residual <= DEFAULT_TARGET_RESIDUAL:
        log.warning("not recording d=%d fiducial: residual %.3e",
                    fid.d, fid.residual)
        return
    path = path or default_catalog_path()
    try:
        catalog = load_catalog(path)
    except ValueError as exc:
        log.warning("replacing fiducial catalog %s: %s", path, exc)
        catalog = {}
    catalog[str(fid.d)] = fiducial_to_json(fid)
    try:
        save_catalog(catalog, path)
    except OSError as exc:
        log.warning("could not write fiducial catalog %s: %s", path, exc)


def get_fiducial(d: int, seed: int = 0,
                 catalog_path: str | None = None) -> Fiducial:
    """Resolve a fiducial: builtin (d = 2), then catalog, then fresh search.

    Only the catalog entry for d is parsed.  It is used if it is a
    well-formed fiducial of dimension d whose orbit residual meets
    `DEFAULT_TARGET_RESIDUAL`; else it is refused with one WARNING naming d
    and the reason, and a new search runs and is recorded (best effort, see
    `record_fiducial`).  Catalog decisions go to the "sic_simplex" logger.
    """
    if d == 2:
        return qubit_tetrahedron_fiducial()
    path = catalog_path or default_catalog_path()
    try:
        catalog = load_catalog(path)
    except ValueError as exc:
        log.warning("unreadable fiducial catalog %s: %s", path, exc)
        catalog = {}
    if str(d) in catalog:
        try:
            cached = fiducial_from_json(catalog[str(d)])
            if cached.d != d:
                raise ValueError(f"it holds a d={cached.d} vector")
            if not cached.residual <= DEFAULT_TARGET_RESIDUAL:
                raise ValueError(f"residual {cached.residual:.3e}")
        except (ValueError, TypeError, OverflowError) as exc:
            log.warning("refused catalog entry for d=%d: %s", d, exc)
        else:
            log.debug("catalog hit for d=%d in %s", d, path)
            return cached
    fid = find_fiducial(d, seed=seed)
    record_fiducial(fid, path)
    return fid
