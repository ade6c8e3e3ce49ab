"""The three benchmark workloads.

Each workload is a closed loop with one client: ``prepare(i)`` builds the
inputs of op ``i`` from the workload seed (untimed), ``run`` performs the op
through the package's public functions (timed), and ``check`` verifies the
output against oracles computed here, outside the package (untimed).  Every
check is written so that NaN fails: ``not (x <= tol)``.

The package is reached only through module attributes
(``state_simplex.build_context``, ``cli.main``), so the span wrappers that
replace those attributes see every call.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

from sic_simplex import cli, sic_povm, state_simplex

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fiducials.json")

SIC_TOL = 1e-10      # orbit residual of a usable fiducial
THEOREM_TOL = 1e-10  # point-vs-Bloch and pure-sphere deviations


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def all_finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def op_rng(seed, i):
    return np.random.default_rng([seed, i])


# ---------------------------------------------------------------------------
# oracles computed without the package
# ---------------------------------------------------------------------------

def wh_orbit(psi):
    """D_{k,l} psi = tau^{kl} X^k Z^l psi, ordered by i = k*d + l."""
    d = psi.shape[0]
    tau = -np.exp(1j * np.pi / d)
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    out = np.empty((d * d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            out[k * d + l] = tau ** (k * l) * np.roll(omega ** (l * j) * psi, k)
    return out


def orbit_residual(orbit):
    d = orbit.shape[1]
    overlaps = np.abs(orbit.conj() @ orbit.T) ** 2
    off = ~np.eye(orbit.shape[0], dtype=bool)
    return float(np.max(np.abs(overlaps[off] - 1.0 / (d + 1.0))))


def effects_residual(effects):
    """Worst deviation of d^2 Tr(E_i E_j) from (d delta_ij + 1)/(d + 1) and
    of sum_i E_i from the identity."""
    n, d, _ = effects.shape
    gram = np.einsum('aij,bji->ab', effects, effects).real * d * d
    expected = (d * np.eye(n) + 1.0) / (d + 1.0)
    completeness = np.abs(effects.sum(axis=0) - np.eye(d)).max()
    return float(max(np.abs(gram - expected).max(), completeness))


def ginibre_states(count, d, rng):
    g = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def haar_projectors(count, d, rng):
    psi = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.einsum('ki,kj->kij', psi, psi.conj())


def bloch_vectors(rhos, basis_matrices):
    d = rhos.shape[1]
    traces = np.einsum('aij,kji->ka', basis_matrices, rhos)
    return np.sqrt(d / (2.0 * (d + 1.0))) * traces.real


def unit_vectors(count, n, rng):
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_geometry_fields(obj, d):
    """Radii, pure-state sum of p^2 and m_pure against their closed forms."""
    n = d * d - 1
    expected = {"R_out": math.sqrt(n), "R_in": math.sqrt(1.0 / n),
                "R_pure": math.sqrt((d - 1.0) / (d + 1.0)),
                "sum_p2_pure": 2.0 / (d * (d + 1.0))}
    for key, value in expected.items():
        err = abs(obj[key] - value)
        require(err <= 1e-12, f"{key} off by {err!r}")
    require(obj["m_pure"] == (d + 2) * (d - 1) // 2, "m_pure")


def load_fixture():
    """d -> fiducial vector from the committed catalog fixture."""
    with open(FIXTURE) as fh:
        raw = json.load(fh)
    out = {}
    for key, entry in raw.items():
        arr = np.array(entry["psi"], dtype=float)
        out[int(key)] = arr[:, 0] + 1j * arr[:, 1]
    return out


def install_warm_catalog():
    """Copy the fixture to this process's catalog and re-check each entry
    with the package's ``sic_residual``."""
    path = os.environ["SIC_SIMPLEX_CATALOG"]
    shutil.copyfile(FIXTURE, path)
    orbits = {}
    for d, psi in sorted(load_fixture().items()):
        orbits[d] = wh_orbit(psi)
        res = sic_povm.sic_residual(orbits[d])
        if not (res <= SIC_TOL):
            raise RuntimeError(f"fixture fiducial d={d} has residual {res!r}")
    return orbits


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ColdSearch:
    """First use of a dimension: fiducial search plus the catalog write."""

    name = "cold-search"
    dims = tuple(range(3, 8))
    cycle = len(dims)
    hit_ratio = 0.0
    exercises = (
        "state_simplex.build_context", "sic_povm.get_fiducial",
        "sic_povm.find_fiducial", "sic_povm.displacement_operators",
        "sic_povm.load_catalog", "sic_povm.save_catalog",
        "sic_povm.sic_residual", "sic_povm.build_sic",
        "su_basis.build_su_basis", "su_basis.structure_constants",
        "bloch.to_bloch",
    )

    def __init__(self, workdir, seed):
        self.dir = os.path.join(workdir, "cold")
        self.seed = seed

    def mix(self):
        return {"op": "build_context(d, seed=k, catalog_path=<fresh empty file>)",
                "d": f"cycles over {list(self.dims)}",
                "k": "drawn per op from default_rng([seed, i])"}

    def setup(self):
        os.makedirs(self.dir)

    def prepare(self, i):
        d = self.dims[i % len(self.dims)]
        k = int(op_rng(self.seed, i).integers(2 ** 31))
        path = os.path.join(self.dir, f"op{i}.json")
        open(path, "w").close()
        return {"kind": f"d={d}", "d": d, "k": k, "path": path}

    def run(self, op):
        return state_simplex.build_context(op["d"], seed=op["k"],
                                           catalog_path=op["path"])

    def check(self, op, ctx):
        d = op["d"]
        try:
            require(ctx.d == d, "context dimension")
            psi = np.asarray(ctx.sic.fiducial.psi)
            res = orbit_residual(wh_orbit(psi))
            require(res <= SIC_TOL, f"orbit residual {res!r}")
            eff = effects_residual(ctx.sic.effects)
            require(eff <= SIC_TOL, f"effects residual {eff!r}")
            n = d * d - 1
            gram = ctx.frame.vertices @ ctx.frame.vertices.T
            dev = float(np.abs(gram - ((n + 1.0) * np.eye(n + 1) - 1.0)).max())
            require(dev <= 1e-9, f"simplex frame Gram deviation {dev!r}")
            with open(op["path"]) as fh:
                entry = json.load(fh)[str(d)]
            saved = np.array(entry["psi"], dtype=float)
            require(np.array_equal(saved[:, 0] + 1j * saved[:, 1], psi),
                    "catalog entry does not re-load with the same vector")
        finally:
            os.remove(op["path"])


class CliWarm:
    """In-process CLI commands against a catalog pre-filled in set-up."""

    name = "cli-warm"
    dims = tuple(range(2, 9))
    # verify takes half the slots, so the median op is a verify at d <= 6,
    # where the forward maps state -> p -> s do most of the work
    commands = ("verify", "tomography", "verify", "convert", "verify",
                "geometry")
    cycle = len(dims) * len(commands)
    hit_ratio = 1.0
    exercises = (
        "cli.verify", "cli.tomography", "cli.convert", "cli.geometry",
        "state_simplex.build_context", "sic_povm.get_fiducial",
        "sic_povm.load_catalog", "sic_povm.sic_residual",
        "sic_povm.build_sic", "sic_povm.displacement_operators",
        "su_basis.build_su_basis", "su_basis.structure_constants",
        "bloch.to_bloch", "bloch.from_bloch", "bloch.validate_density_matrix",
        "state_simplex.state_to_probabilities", "simplex_geometry.to_point",
        "simplex_geometry.to_probabilities",
        "state_simplex.verify_b_equals_q", "state_simplex.simulate_tomography",
        "state_simplex.project_to_state",
    )

    def __init__(self, workdir, seed):
        self.dir = os.path.join(workdir, "cli")
        self.seed = seed

    def mix(self):
        return {"op": "sic_simplex.cli.main(argv)",
                "schedule": "op i: D = 2 + i % 7, command = "
                            f"{list(self.commands)}[(i % 7 + i // 7) % 6]; "
                            f"every {self.cycle} ops run each (slot, D) "
                            "pair once",
                "argv": ["verify --d D --samples 1000 --seed S --out v.json",
                         "tomography --in rho.json --shots 100000 --seed S "
                         "--out t.csv",
                         "convert --to probabilities --in rho.json --out c.json",
                         "geometry --d D --out g.json"],
                "inputs": "Ginibre state and S drawn per op from "
                          "default_rng([seed, i])"}

    def setup(self):
        os.makedirs(self.dir)
        self.orbits = install_warm_catalog()
        self.orbits[2] = wh_orbit(sic_povm.qubit_tetrahedron_fiducial().psi)

    def prepare(self, i):
        a = i % len(self.dims)
        d = self.dims[a]
        command = self.commands[(a + i // len(self.dims)) % len(self.commands)]
        rng = op_rng(self.seed, i)
        rho = ginibre_states(1, d, rng)[0]
        seed = int(rng.integers(2 ** 31))
        state_path = os.path.join(self.dir, "rho.json")
        out = os.path.join(self.dir, "out.csv" if command == "tomography"
                           else "out.json")
        for stale in ("out.csv", "out.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.dir, stale))
        with open(state_path, "w") as fh:
            json.dump({"d": d, "rho": [[[z.real, z.imag] for z in row]
                                       for row in rho]}, fh)
        if command == "verify":
            argv = ["verify", "--d", str(d), "--samples", "1000",
                    "--seed", str(seed), "--out", out]
        elif command == "tomography":
            argv = ["tomography", "--in", state_path, "--shots", "100000",
                    "--seed", str(seed), "--out", out]
        elif command == "convert":
            argv = ["convert", "--to", "probabilities", "--in", state_path,
                    "--out", out]
        else:
            argv = ["geometry", "--d", str(d), "--out", out]
        return {"kind": f"{command} d={d}", "command": command, "d": d,
                "rho": rho, "argv": argv, "out": out}

    def run(self, op):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(op["argv"])
        return code, sink.getvalue()

    def check(self, op, result):
        code, text = result
        require(code == 0, f"exit code {code}: {text.strip()[-200:]}")
        d = op["d"]
        if op["command"] == "tomography":
            with open(op["out"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            require(len(rows) == 1, "tomography CSV row count")
            td = float(rows[0]["trace_distance"])
            require(math.isfinite(td) and 0.0 <= td <= 0.5,
                    f"trace distance {td!r}")
            require(int(rows[0]["shots"]) == 100000, "shots column")
            return
        with open(op["out"]) as fh:
            obj = json.load(fh)
        if op["command"] == "verify":
            (res,) = obj
            # the program folds each deviation with max(0.0, x), which drops
            # NaN, so a NaN in the per-sample maps reaches this file as 0.0
            devs = [res["max_theorem_deviation"], res["max_pure_norm_deviation"],
                    res["max_pure_sum_p2_deviation"]]
            require(all(x < THEOREM_TOL for x in devs), f"deviations {devs!r}")
            require(res["d"] == d and res["samples"] == 1000, "verify header")
            check_geometry_fields(res, d)
        elif op["command"] == "convert":
            p = np.array(obj["probabilities"], dtype=float)
            psi = self.orbits[d]
            expected = np.einsum('ai,ij,aj->a', psi.conj(), op["rho"], psi).real / d
            require(p.shape == expected.shape and all_finite(p), "probabilities")
            err = float(np.abs(p - expected).max())
            require(err <= 1e-12, f"probabilities off by {err!r}")
            require(obj["inside"] is True, "state reported outside the simplex")
        else:
            check_geometry_fields(obj, d)
            require(all_finite(obj["d_m"]), "facet distances")


class ClassifyStream:
    """Classification of state, sphere and outside points, plus witnesses."""

    name = "classify-stream"
    dims = tuple(range(2, 9))
    cycle = len(dims)
    per_kind = 160
    hit_ratio = 1.0
    exercises = (
        "state_simplex.classify_point", "state_simplex.find_nonstate_sphere_point",
        "simplex_geometry.to_probabilities", "bloch.is_state", "bloch.from_bloch",
        "bloch.is_pure", "su_basis.star_product",
        "state_simplex.build_context", "su_basis.structure_constants",
        "sic_povm.get_fiducial", "sic_povm.load_catalog", "sic_povm.build_sic",
    )
    kinds = ("pure", "mixed", "sphere", "beyond")

    def __init__(self, workdir, seed):
        self.seed = seed

    def mix(self):
        return {"op": "classify_point on a batch for one d, then "
                      "find_nonstate_sphere_point and classify_point on the "
                      "witness (d >= 3)",
                "d": f"cycles over {list(self.dims)}",
                "batch": {k: self.per_kind for k in self.kinds},
                "inputs": "drawn per op from default_rng([seed, i])"}

    def setup(self):
        install_warm_catalog()
        self.contexts = {d: state_simplex.build_context(d) for d in self.dims}

    def prepare(self, i):
        d = self.dims[i % len(self.dims)]
        ctx = self.contexts[d]
        rng = op_rng(self.seed, i)
        n = d * d - 1
        mats = ctx.basis.matrices
        r_pure = math.sqrt((d - 1.0) / (d + 1.0))
        pure = bloch_vectors(haar_projectors(self.per_kind, d, rng), mats)
        mixed = bloch_vectors(ginibre_states(self.per_kind, d, rng), mats)
        sphere = r_pure * unit_vectors(self.per_kind, n, rng)
        beyond = (math.sqrt(n) * rng.uniform(1.01, 1.5, size=(self.per_kind, 1))
                  * unit_vectors(self.per_kind, n, rng))
        points = np.vstack([pure, mixed, sphere, beyond])
        kinds = [k for k in self.kinds for _ in range(self.per_kind)]
        return {"kind": f"d={d}", "d": d, "ctx": ctx, "points": points,
                "kinds": kinds, "witness_seed": int(rng.integers(2 ** 31))}

    def run(self, op):
        ctx = op["ctx"]
        labels = [state_simplex.classify_point(s, ctx) for s in op["points"]]
        witness = witness_label = None
        if op["d"] >= 3:
            witness = state_simplex.find_nonstate_sphere_point(
                ctx, seed=op["witness_seed"])
            witness_label = state_simplex.classify_point(witness, ctx)
        return labels, witness, witness_label

    def check(self, op, result):
        labels, witness, witness_label = result
        d = op["d"]
        frame = op["ctx"].frame
        require(len(labels) == len(op["points"]), "label count")
        for s, kind, label in zip(op["points"], op["kinds"], labels):
            if kind == "pure":
                require(label == state_simplex.PURE_STATE, f"pure -> {label}")
            elif kind == "mixed":
                require(label == state_simplex.MIXED_STATE, f"mixed -> {label}")
            elif kind == "beyond":
                require(label == state_simplex.OUTSIDE_SIMPLEX,
                        f"beyond R_out -> {label}")
            elif d == 2:
                require(label in (state_simplex.PURE_STATE,
                                  state_simplex.MIXED_STATE),
                        f"d=2 sphere point -> {label}")
            else:
                # a sphere point that is a state would be pure, which a
                # random point is with probability zero for d >= 3
                p = (frame.vertices @ s + 1.0) / (frame.n + 1.0)
                margin = float(min(p.min(), 1.0 - p.max()))
                if margin < -1e-9:
                    expected = (state_simplex.OUTSIDE_SIMPLEX,)
                elif margin > 1e-9:
                    expected = (state_simplex.IN_SIMPLEX_NOT_STATE,)
                else:
                    expected = (state_simplex.OUTSIDE_SIMPLEX,
                                state_simplex.IN_SIMPLEX_NOT_STATE)
                require(label in expected, f"sphere point -> {label}")
        if d >= 3:
            norm = float(np.linalg.norm(witness))
            require(abs(norm - math.sqrt((d - 1.0) / (d + 1.0))) <= 1e-12,
                    f"witness off the pure sphere: |w| = {norm!r}")
            require(witness_label == state_simplex.IN_SIMPLEX_NOT_STATE,
                    f"witness -> {witness_label}")


WORKLOADS = {w.name: w for w in (ColdSearch, CliWarm, ClassifyStream)}
