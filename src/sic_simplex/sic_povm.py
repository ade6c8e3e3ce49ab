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
floor, or early once it stalls on a plateau; the first converged restart
wins and ends the search, else the smallest residual wins.  For d = 2 an
exact fiducial (Bloch direction (1,1,1)/sqrt(3), the regular tetrahedron)
is built in.  A fiducial's residual, and so whether it has converged, is
recomputed from its vector, never stored.  `json_field` is the one gate for
the "d" and numeric arrays of every JSON input (state files, fiducial files,
catalog entries), which `read_json` decodes.
"""

import bisect
import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bloch import to_bloch
from .su_basis import SuBasis

# fiducials worse than this are refused by build_sic
MAX_BUILD_RESIDUAL = 1e-6
# a fiducial has converged when its residual is at or below this
DEFAULT_TARGET_RESIDUAL = 1e-10
# a restart whose worst deviation max|w_D| is at or below this has nothing
# left to gain: it sits at roundoff, four decades under the default target
POLISH_FLOOR = 1e-14
# Gauss-Newton steps a restart may take before it ends short of the floor
MAX_POLISH_STEPS = 60
# a restart ends once phi has not halved over this many evaluations (the
# start, line-search candidates and doubled steps): it sits on a plateau
STALL_EVALUATIONS = 40
# ridge on the normal equations: the global phase is a null direction of
# the Jacobian, so J^T J alone is singular
_RIDGE = 1e-12

log = logging.getLogger("sic_simplex")


@dataclass(frozen=True, eq=False)
class Fiducial:
    """Unit vector whose displacement orbit is (close to) a SIC.

    `source` records provenance ("builtin", "search" or "manual"); for
    searches, `seed`/`config` pin the run.  Frozen, with a read-only copy
    of `psi` (the caller's array is left as it was), so `d`, the `orbit`,
    its `residual` (worst overlap deviation, see `sic_residual`) and
    `converged` (residual <= DEFAULT_TARGET_RESIDUAL, False for NaN) are
    read off `psi` and cannot disagree with it; the orbit and residual are
    computed on first use and cached.  Compared by identity.
    """

    psi: np.ndarray  # (d,) complex, unit norm, read-only
    source: str = "manual"
    seed: int | None = None
    config: dict | None = None

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

    @property
    def converged(self) -> bool:
        return self.residual <= DEFAULT_TARGET_RESIDUAL


@dataclass
class SicPovm:
    """d**2 effects E_i with their Bloch direction vectors e_i."""

    effects: np.ndarray     # (d**2, d, d) complex
    bloch_dirs: np.ndarray  # (d**2, d**2 - 1) real
    fiducial: Fiducial = field(repr=False)


@functools.cache
def displacement_operators(d: int) -> np.ndarray:
    """All D_{k,l} = tau^{kl} X^k Z^l as an array indexed by i = k*d + l.

    X|j> = |j+1 mod d>, Z|j> = omega^j |j> with omega = exp(2 pi i / d),
    and tau = -exp(i pi / d) keeps the orbit well defined for even d.  So
    column j of D_{k,l} holds tau^{kl} omega^{lj} = exp(i pi e / d) in row
    j + k mod d, e = (d+1) kl + 2 lj reduced mod 2d before the exponential.
    Built once per d and shared, so the array is read-only.
    """
    k, l, j = np.ogrid[:d, :d, :d]
    e = ((d + 1) * k * l + 2 * l * j) % (2 * d)
    ops = np.zeros((d * d, d, d), dtype=complex)
    ops[k * d + l, (j + k) % d, j] = np.exp(1j * np.pi / d * e)
    ops.flags.writeable = False
    return ops


def _displace(disp: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """D psi for each D of the C-contiguous (n, d, d) stack `disp`, as one
    (n*d, d) product: the D psi of both `wh_orbit` and `_deviations`."""
    n, d, _ = disp.shape
    return (disp.reshape(n * d, d) @ psi).reshape(n, d)


def wh_orbit(psi: np.ndarray) -> np.ndarray:
    """Orbit D_{k,l} |psi> for all (k, l), ordered by i = k*d + l."""
    psi = np.asarray(psi, dtype=complex)
    return _displace(displacement_operators(psi.shape[0]), psi)


def sic_residual(orbit: np.ndarray) -> float:
    """Worst overlap deviation max_{i != j} | |<psi_i|psi_j>|^2 - 1/(d+1) |.

    The deviations are formed in place over all pairs, and the diagonal's
    are set to 0, which leaves the max over i != j unchanged."""
    n, d = orbit.shape
    dev = np.abs(orbit.conj() @ orbit.T) ** 2
    dev -= 1.0 / (d + 1.0)
    dev.flat[::n + 1] = 0.0
    return float(np.maximum.reduce(np.abs(dev, out=dev), axis=None))


def qubit_tetrahedron_fiducial() -> Fiducial:
    """Exact d = 2 fiducial: the pure state with Bloch direction (1,1,1)/sqrt(3).

    Its orbit under {I, Z, X, XZ} is the regular tetrahedron on the Bloch
    sphere, an exact SIC.
    """
    cos_theta = 1.0 / math.sqrt(3.0)
    psi = np.array([math.sqrt((1.0 + cos_theta) / 2.0),
                    np.exp(1j * np.pi / 4.0)
                    * math.sqrt((1.0 - cos_theta) / 2.0)])
    return Fiducial(psi=psi, source="builtin")


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
# random start, renormalizing to the unit sphere after every step, and it
# stops once max|w_D| <= POLISH_FLOOR.  For d >= 4, near a zero of phi it
# converges quadratically to that floor (about 5-12 steps).  d = 3 is the
# exception: its fiducials form a continuous family, so besides the two
# exact nulls J has a singular value that tends to 0 at a fiducial, the
# zero is degenerate, and plain Gauss-Newton converges linearly, max|w_D|
# falling about 4x per step.  So after two full steps running that each cut
# max|w_D| by a ratio in (0.1, 0.5), the doubled step is tried as well
# (Schroeder's rule for a double root; Decker-Kelley, SIAM J. Numer. Anal.
# 17, 1980), which brings d = 3 to a median of 8 steps (5-16 over seeds
# 0..299); near a quadratic zero the ratio falls under 0.1, so for d >= 4
# the rule rarely fires.  A restart that stalls on a plateau of phi (a
# saddle region) ends early (STALL_EVALUATIONS) instead of spending up to
# MAX_POLISH_STEPS steps there.  max|w_D| is the orbit's sic_residual up to
# roundoff, so a restart that stops at the floor has already converged.
# J is h viewed as real, (Re, Im) interleaved; the step is dx as complex.
# ---------------------------------------------------------------------------

def _deviations(disp: np.ndarray, psi: np.ndarray, target: float):
    """D psi for every displacement D (`_displace`), the overlaps
    c_D = <psi|D|psi> and the deviations w_D = |c_D|^2 - target."""
    d_psi = _displace(disp, psi)
    c = d_psi @ psi.conj()
    return d_psi, c, np.abs(c) ** 2 - target


@functools.cache
def _adjoint_rows(d: int) -> np.ndarray:
    """Row of D_{-k,-l} = +-D_{k,l}^dagger for each row k*d + l - 1 of
    `displacement_operators(d)[1:]`; built once per d, so read-only."""
    a = np.arange(1, d * d)
    pair = (-(a // d)) % d * d + (-a) % d - 1
    pair.flags.writeable = False
    return pair


def _jacobian(d_psi, c, pair):
    """Jacobian of the deviations wrt (Re psi_j, Im psi_j), interleaved: the
    real view of 2h, h_D = dw_D/dpsi* = conj(c_D) D psi + c_D D^dagger psi,
    from the D psi and c_D of `_deviations`.  D^dagger = s D' with D' =
    D_{-k,-l} in row pair[D] and s = +-1, so c_D' = s conj(c_D) and h_D =
    g_D + g_D', g_D = conj(c_D) D psi: no D^dagger psi is formed."""
    g = d_psi * (2.0 * c.conj())[:, None]
    g += g.take(pair, axis=0)
    return g.view(float)


def _polish(psi):
    """Gauss-Newton on the deviation vector from the normalized start `psi`,
    over the d**2 - 1 nonzero displacements with target 1/(d+1): each step
    solves (J^T J + _RIDGE I) dx = -J^T w, views dx as the complex step
    and takes the first of 30 halvings of it that decreases phi,
    renormalized.  When that step was full and cut max|w_D| by a ratio in
    (0.1, 0.5), and the step before it did the same (linear convergence to
    a degenerate zero, as at d = 3), the doubled step is evaluated too and
    kept if its phi is lower; the ratio of the point kept is the one the
    next step's test reads.  Ends once max|w_D| <= POLISH_FLOOR, after
    MAX_POLISH_STEPS steps, when no halving helps, when the solve fails, or
    when phi has not halved since the latest accepted point at least
    STALL_EVALUATIONS evaluations back.  Each point (the start, each
    line-search candidate and each doubled step) is evaluated once, phi
    and max|w_D| with it, and J is formed only at the points a step
    leaves, from the D psi and c_D their evaluation carried: per step, the
    2d x 2d normal equations and one solve; per evaluation, one (n*d, d)
    product for D psi.  Returns (psi, steps taken, final max|w_D|, why it
    ended): "floor", "stall", "no_decrease", "solve_failed" or "step_cap"."""
    d = psi.shape[0]
    disp = displacement_operators(d)[1:]
    pair = _adjoint_rows(d)
    ridge = _RIDGE * np.eye(2 * d)

    def evaluate(x):
        # x normalized, its (D psi, c, w), its phi and its max|w_D|
        x = x / np.linalg.norm(x)
        d_psi, c, w = _deviations(disp, x, 1.0 / (d + 1.0))
        return x, (d_psi, c, w), w @ w, np.maximum.reduce(np.abs(w))

    psi, (d_psi, c, w), phi, dev = evaluate(psi)
    # evaluation count and phi at each accepted point, for the stall rule
    counts, phis = [1], [phi]
    last_linear = False
    ended = "step_cap"
    for iters in range(MAX_POLISH_STEPS):
        if dev <= POLISH_FLOOR:
            ended = "floor"
            break
        ref = bisect.bisect_right(counts, counts[-1] - STALL_EVALUATIONS)
        if ref and phi > 0.5 * phis[ref - 1]:
            ended = "stall"
            break
        jac = _jacobian(d_psi, c, pair)
        try:
            dx = np.linalg.solve(jac.T @ jac + ridge, jac.T @ -w)
        except np.linalg.LinAlgError:
            ended = "solve_failed"
            break
        step = dx.view(complex)
        evals = counts[-1]
        for halvings in range(30):
            cand = evaluate(psi + step)
            evals += 1
            if cand[2] < phi:
                break
            step *= 0.5
        else:
            ended = "no_decrease"
            break
        full_linear = halvings == 0 and 0.1 * dev < cand[3] < 0.5 * dev
        if full_linear and last_linear:
            longer = evaluate(psi + 2.0 * step)
            evals += 1
            if longer[2] < cand[2]:
                cand = longer
                full_linear = 0.1 * dev < cand[3] < 0.5 * dev
        last_linear = full_linear
        psi, (d_psi, c, w), phi, dev = cand
        counts.append(evals)
        phis.append(phi)
    else:
        iters = MAX_POLISH_STEPS
    # dev is max|w_D| of psi on every exit
    return psi, iters, float(dev), ended


def find_fiducial(d: int, seed: int = 0, restarts: int = 10) -> Fiducial:
    """Multi-start frame-potential minimization over unit vectors in C^d.

    The restarts run one at a time, each polishing one random complex
    Gaussian start (see `_polish`) into a `Fiducial`, and `restarts` is an
    upper bound: the first converged restart wins and ends the search.
    A restart that stalls on a plateau is ended early and does not count
    as converged; only when no restart converges does the smallest residual
    win (ties by lowest restart index, NaN last), abandoned restarts
    included, and it is returned unconverged rather than raising.  The
    result is deterministic in (d, seed, restarts).  Each restart logs one
    DEBUG record on the "sic_simplex" logger.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(seed)
    config = {"restarts": restarts, "target_residual": DEFAULT_TARGET_RESIDUAL}
    fids = []
    for restart in range(restarts):
        start = rng.normal(size=d) + 1j * rng.normal(size=d)
        t0 = time.perf_counter()
        psi, iterations, max_dev, ended = _polish(start)
        fid = Fiducial(psi=psi, source="search", seed=seed, config=config)
        fids.append(fid)
        log.debug("search restart d=%d restart=%d iterations=%d ended=%s "
                  "max_dev=%.3e residual=%.3e wall_ms=%.3f ended_search=%s",
                  d, restart, iterations, ended, max_dev, fid.residual,
                  1e3 * (time.perf_counter() - t0), fid.converged)
        if fid.converged:
            return fid
    # NaN last; min keeps the earliest of equal keys (all NaN: the first)
    return min(fids, key=lambda f: (np.isnan(f.residual), f.residual))


def build_sic(fid: Fiducial, basis: SuBasis) -> SicPovm:
    """Effects E_i = P_i / d and Bloch directions e_i of the projectors
    P_i = |psi_i><psi_i|, the stack P formed once from the orbit.

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
    proj = orbit[:, :, None] * orbit.conj()[:, None, :]
    # one batched call: the d**2 projectors are already held in full
    return SicPovm(effects=proj / fid.d, bloch_dirs=to_bloch(proj, basis),
                   fiducial=fid)


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


@contextlib.contextmanager
def naming(path: str):
    """Start every ValueError raised in the block with `path`, once: the
    file whose value caused it.  A JSONDecodeError stays one, with the text
    read as its `doc`."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc,
                                   exc.pos) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: str, check):
    """`check` of `path`'s JSON value, every ValueError starting with `path`
    once (`naming`): a JSONDecodeError if the file is not JSON, a plain one
    if it is not UTF-8 or nests too deep, and `check`'s own ValueErrors,
    which say what the value breaks."""
    with open(path) as fh, naming(path):
        try:
            return check(json.load(fh))
        except RecursionError:
            # the decoder recurses once per nesting level
            raise ValueError("JSON nested too deeply") from None


def json_field(obj: dict, key: str, shape) -> tuple[int, np.ndarray]:
    """(d, obj[key] as an array): "d" an int >= 2 (not a bool), and obj[key]
    a finite array of JSON numbers (no bools or strings) of shape
    `shape(d)`; anything else raises ValueError."""
    d = obj.get("d")
    if type(d) is not int or d < 2:
        raise ValueError('"d" must be an integer >= 2, got '
                         f"{type(d).__name__} {d!r:.40}")
    try:
        arr = np.array(obj[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # bools and numeric strings convert too, so read the decoded leaves
    if arr is None or not all(type(x) in (int, float)
                              for x in np.array(obj[key], dtype=object).flat):
        raise ValueError(f"{key} entry is not an array of numbers")
    if arr.shape != shape(d):
        raise ValueError(f"{key} entry has shape {arr.shape} for d={d}, "
                         f"expected {shape(d)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} entry is not finite")
    return d, arr


def fiducial_from_json(obj: dict) -> Fiducial:
    """Fiducial from a catalog entry or fiducial file; "residual" and
    "converged" go unread.  "d" and "psi", a unit vector of d [re, im]
    pairs, pass `json_field`; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"fiducial entry is not a JSON object: {obj!r:.40}")
    if "psi" not in obj:
        raise ValueError("fiducial entry has no psi field")
    d, arr = json_field(obj, "psi", lambda d: (d, 2))
    psi = arr[:, 0] + 1j * arr[:, 1]
    # a Python float, so the error shows the number, not numpy's repr
    nrm = float(np.linalg.norm(psi))
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"fiducial vector norm {nrm!r} != 1")
    return Fiducial(psi=psi, source=obj.get("source", "manual"),
                    seed=obj.get("seed"), config=obj.get("config"))


def load_catalog(path: str) -> dict:
    """The entries of a catalog file as stored, `str(d)` -> JSON value;
    empty if the file is absent, empty or only whitespace.

    No entry is parsed here: `get_fiducial` parses only the one it looks
    up, and `record_fiducial` writes the others back unchanged.

    Raises ValueError, starting with `path`, when `read_json` does, or when
    the file is JSON but not an object of entries."""
    def entries(raw):
        if not isinstance(raw, dict):
            raise ValueError(f"catalog is a JSON {type(raw).__name__}, "
                             "not an object")
        return raw
    # a 0-byte (fresh) catalog is told from its size: the open and decoder
    # error that a blank one takes cost about eight times as much
    if not os.path.exists(path) or not os.path.getsize(path):
        return {}
    try:
        return read_json(path, entries)
    except json.JSONDecodeError as exc:
        if exc.doc.strip():
            raise
        return {}


def save_catalog(catalog: dict, path: str) -> None:
    """Write stored entries (`str(d)` -> JSON value, as `load_catalog`
    returns them) as one line of sorted JSON, no indent (the C encoder),
    atomically: dump beside `path`, then rename over it, so readers never
    see a partial file and a failed write leaves the old catalog untouched."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(catalog, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def record_fiducial(fid: Fiducial, path: str | None = None) -> None:
    """Persist a search result into the catalog at `path`, best effort.

    Only a converged fiducial is written, the rule a lookup applies; an
    unconverged one is dropped silently.  The file is re-read just before
    the write, and every other entry goes back as stored, including ones
    `get_fiducial` would refuse.  An unreadable file is replaced by a
    catalog holding only this entry, and a failed write is logged, each
    with one WARNING.
    """
    if not fid.converged:
        return
    path = path or default_catalog_path()
    try:
        catalog = load_catalog(path)
    except ValueError as exc:
        log.warning("replacing fiducial catalog %s", exc)
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
    well-formed, converged fiducial of dimension d (a stored "converged" is
    not read); else it is refused with one WARNING naming d and the reason,
    and a new search runs and is recorded (best effort, see
    `record_fiducial`).  Catalog decisions go to the "sic_simplex" logger,
    with one DEBUG record naming the fiducial returned (see `_log_used`).
    """
    if d == 2:
        return _log_used(qubit_tetrahedron_fiducial(), "builtin")
    path = catalog_path or default_catalog_path()
    try:
        catalog = load_catalog(path)
    except ValueError as exc:
        log.warning("unreadable fiducial catalog %s", exc)
        catalog = {}
    if str(d) in catalog:
        try:
            cached = fiducial_from_json(catalog[str(d)])
            if cached.d != d:
                raise ValueError(f"it holds a d={cached.d} vector")
            if not cached.converged:
                raise ValueError(f"residual {cached.residual:.3e}")
        except ValueError as exc:
            log.warning("refused catalog entry for d=%d: %s", d, exc)
        else:
            return _log_used(cached, "catalog", f" (catalog hit in {path})")
    fid = find_fiducial(d, seed=seed)
    record_fiducial(fid, path)
    return _log_used(fid, "search")


def _log_used(fid: Fiducial, source: str, note: str = "") -> Fiducial:
    """Log one DEBUG record naming `fid`: its d, where it came from
    ("builtin", "catalog" or "search"), its seed and the first 12 hex
    digits of the SHA-256 of its psi bytes, formed only when DEBUG is on.
    Returns `fid`."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug("fiducial used d=%d source=%s seed=%s sha256=%s%s",
                  fid.d, source, fid.seed,
                  hashlib.sha256(fid.psi.tobytes()).hexdigest()[:12], note)
    return fid
