"""Command-line interface: geometry reports, fiducial search, identity
verification, representation conversion and tomography simulation.

State files are JSON objects {"d": d, key: value} holding exactly one of the
representations rho, bloch, probabilities and point; `_state_fields` (a
`sic_povm.read_json` check) and `_state_json` are their only reader and
writer, and `sic_povm.json_field` is the one gate for "d" and the value, as
for --fiducial files; an error about either file starts with its path, and
so does every later check of a state file's value (`sic_povm.naming`).
`convert` and `tomography` read and check the whole file before building a
context, so a refused file never starts a fiducial search or writes the
catalog.

Exit status: 0 when every check passed, 1 when a check failed or `find-sic`
did not converge, 2 on bad input, a dimension over `MEMORY_BUDGET`
included (see `_admit`).  Output files are deterministic in the
flags (including --seed) and the fiducial used: a command that builds a
context takes the catalog's converged entry for d when there is one, else
a fresh search, and --fiducial pins the fiducial.  find-sic always runs a
fresh search.
"""

import argparse
import csv
import functools
import inspect
import json
import math
import sys

try:
    import resource
except ImportError:  # no rlimits off Unix
    resource = None

import numpy as np

from . import bloch, state_simplex
from .sic_povm import (fiducial_from_json, fiducial_to_json, find_fiducial,
                       json_field, naming, read_json, record_fiducial)
from .simplex_geometry import to_probabilities
from .state_simplex import (build_context, geometry_report,
                            simulate_tomography, probabilities_to_point,
                            point_to_state, verify_report)

GEOMETRY_CSV_COLUMNS = ["d", "R_out", "R_in", "R_pure", "m_pure",
                        "sum_p2_pure", "pure_sphere_is_inner"]
VERIFY_CSV_COLUMNS = ["d", "R_out", "R_in", "R_pure", "m_pure",
                      "sum_p2_pure", "max_theorem_deviation"]
TOMOGRAPHY_CSV_COLUMNS = ["shots", "trace_distance", "seed"]
# the representations a state file may hold, exactly one per file
STATE_KEYS = ("rho", "bloch", "probabilities", "point")
# the most memory `_admit` lets a command plan for: a context is admitted up
# to d = 85 and `geometry` up to d = 6553
MEMORY_BUDGET = 4 * 2 ** 30


def _at_least(least: int):
    """argparse type of an integer flag >= `least`.  Its error names the
    rule and the value, and argparse prefixes the flag."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {least}, got {value}")
        return n
    return parse


def _tol(value: str) -> float:
    # inf would pass every deviation, and nan or <= 0 fail every one
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {value}")
    return tol


def _admit(d: int, label: str, context: bool = True) -> int:
    """d, if the command's estimated memory fits the budget; else a
    ValueError naming `label`, the estimate and the budget, before anything
    is built.

    A context or a search holds d**4-sized tables (the basis matrices and
    their trace columns, the displacement operators, the SIC effects and
    Bloch directions), about 80 d**4 bytes; `geometry` holds its d**2-entry
    d_m list and their JSON text, about 100 d**2 bytes.  The budget is
    `MEMORY_BUDGET`, or the process's soft `RLIMIT_AS` where that is finite
    and smaller, since the process cannot map more than that.
    """
    need = 80 * d ** 4 if context else 100 * d ** 2
    budget = MEMORY_BUDGET
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            budget = min(budget, soft)
    if need > budget:
        # whole MiB, rounded up: exact for any d, and never equal to the budget
        raise ValueError(f"{label} {d} needs about {-(-need // 2 ** 20):,} "
                         f"MiB, over the {budget // 2 ** 20:,} MiB budget")
    return d


def _write_json(obj, path: str | None) -> None:
    # allow_nan=False refuses NaN/Inf before any file is opened
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(columns, rows, path: str | None) -> None:
    if not all(math.isfinite(v) for r in rows for v in r.values()
               if isinstance(v, float)):
        raise ValueError("non-finite value in output")
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _state_fields(obj) -> tuple[int, str, np.ndarray]:
    """A state file's (d, key, value), the `read_json` check of `convert`
    and `tomography`: a JSON object holding exactly one of `STATE_KEYS`
    (other keys are ignored), whose "d" and value pass `json_field` and
    `_admit`, the value of shape (d, d, 2) for rho, (d**2,) for
    probabilities and (d**2 - 1,) otherwise.  Rho comes back complex.
    """
    keys = [k for k in STATE_KEYS if k in obj] if isinstance(obj, dict) else []
    if len(keys) != 1:
        raise ValueError("input file must be a JSON object holding exactly "
                         "one of: " + ", ".join(STATE_KEYS))
    key = keys[0]
    d, value = json_field(obj, key, lambda d: {
        "rho": (d, d, 2), "probabilities": (d * d,)}.get(key, (d * d - 1,)))
    _admit(d, '"d":')
    if key == "rho":
        value = value[..., 0] + 1j * value[..., 1]
    return d, key, value


def _state_json(d: int, key: str, value: np.ndarray) -> dict:
    """A state file's object: rho as [[[re, im], ...], ...], any other
    representation as a list of floats."""
    if key == "rho":
        return {"d": d, key: [[[float(z.real), float(z.imag)] for z in row]
                              for row in value]}
    return {"d": d, key: [float(x) for x in value]}


def _context(d: int, args) -> state_simplex.QuantumSimplexContext:
    """The context for d, of the --fiducial file if given; an error about
    that file's value, its SIC residual included, starts with its path."""
    def fiducial_for_d(obj):
        fid = fiducial_from_json(obj)
        if fid.d != d:
            raise ValueError(f"holds a d={fid.d} fiducial, not d={d}")
        return fid
    if not args.fiducial:
        return build_context(d, seed=args.seed)
    fid = read_json(args.fiducial, fiducial_for_d)
    with naming(args.fiducial):
        return build_context(d, fiducial=fid, seed=args.seed)


def _cmd_geometry(args) -> int:
    obj = geometry_report(_admit(args.d, "--d", context=False))
    if args.format == "json":
        _write_json(obj, args.out)
    else:
        row = {k: obj[k] for k in GEOMETRY_CSV_COLUMNS}
        _write_csv(GEOMETRY_CSV_COLUMNS, [row], args.out)
    return 0


def _cmd_find_sic(args) -> int:
    fid = find_fiducial(_admit(args.d, "--d"), seed=args.seed,
                        restarts=args.restarts)
    _write_json(fiducial_to_json(fid), args.out)
    print(f"d={args.d} residual={fid.residual:.6e} "
          f"{'converged' if fid.converged else 'NOT CONVERGED'}",
          # without --out, stdout holds the file alone
          file=sys.stdout if args.out else sys.stderr)
    record_fiducial(fid)
    return 0 if fid.converged else 1


def _cmd_verify(args) -> int:
    dims = list(range(2, 6)) if args.all else [_admit(args.d, "--d")]
    results = [verify_report(_context(d, args), args.samples, args.seed,
                             args.tol) for d in dims]
    for res in results:
        print(f"d={res['d']}: max point-vs-Bloch deviation "
              f"{res['max_theorem_deviation']:.3e}, pure-sphere norm deviation "
              f"{res['max_pure_norm_deviation']:.3e}, sum p^2 deviation "
              f"{res['max_pure_sum_p2_deviation']:.3e} "
              f"[{'ok' if res['passed'] else 'FAILED'}]")
    if args.out:
        if args.format == "json":
            _write_json(results, args.out)
        else:
            rows = [{k: r[k] for k in VERIFY_CSV_COLUMNS} for r in results]
            _write_csv(VERIFY_CSV_COLUMNS, rows, args.out)
    return 0 if all(r["passed"] for r in results) else 1


def _cmd_convert(args) -> int:
    d, key, value = read_json(args.infile, _state_fields)
    ctx = _context(d, args)
    # past the context, every check and the output gate judge the value
    with naming(args.infile):
        # the simplex point doubles as the Bloch vector
        if key == "rho":
            s = bloch.to_bloch(value, ctx.basis)
        elif key == "probabilities":
            s = probabilities_to_point(value, ctx)
        else:
            s = value
        if args.to == "rho":
            out = _state_json(d, "rho", point_to_state(s, ctx))
        elif args.to == "probabilities":
            p, inside = to_probabilities(s, ctx.frame)
            out = {**_state_json(d, "probabilities", p), "inside": inside}
        else:
            out = _state_json(d, args.to, s)
        _write_json(out, args.out)
    return 0


def _rho_or_bloch(obj) -> tuple[int, str, np.ndarray]:
    """`_state_fields`, for a file holding rho or bloch: `tomography`'s
    `read_json` check."""
    d, key, value = _state_fields(obj)
    if key not in ("rho", "bloch"):
        raise ValueError("tomography input must contain rho or bloch")
    return d, key, value


def _cmd_tomography(args) -> int:
    # the flag's rule before any file is read: numpy's multinomial sampler
    # takes at most 2**63 - 1 shots
    if args.shots > np.iinfo(np.int64).max:
        raise ValueError(f"--shots must be in [1, 2**63 - 1], got {args.shots}")
    d, key, value = read_json(args.infile, _rho_or_bloch)
    ctx = _context(d, args)
    # past the context, every check and the output gate judge the state
    with naming(args.infile):
        rho = value if key == "rho" else point_to_state(value, ctx)
        bloch.validate_density_matrix(rho)
        result = simulate_tomography(rho, ctx, shots=args.shots,
                                     seed=args.seed)
        row = {"shots": result.shots, "trace_distance": result.trace_distance,
               "seed": args.seed}
        _write_csv(TOMOGRAPHY_CSV_COLUMNS, [row], args.out)
    print(f"shots={args.shots} trace_distance={result.trace_distance:.6e}",
          file=sys.stdout if args.out else sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sic-simplex` parser, built once per process: parsing does not
    modify it, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="sic-simplex",
        description="SIC-POVM probability-simplex toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="radii and facet data for dimension d")
    p.add_argument("--d", type=_at_least(2), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("find-sic", help="search for a SIC fiducial")
    p.add_argument("--d", type=_at_least(2), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--restarts", type=_at_least(1), metavar="N",
                   default=inspect.signature(find_fiducial)
                   .parameters["restarts"].default,
                   help="run at most N restarts; the first converged one "
                        "ends the search (default: %(default)s)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_find_sic)

    p = sub.add_parser("verify", help="check the point-vs-Bloch identity "
                                      "and pure-state laws numerically")
    # exactly one of them, so no dimension given is silently dropped
    dims = p.add_mutually_exclusive_group(required=True)
    dims.add_argument("--d", type=_at_least(2))
    dims.add_argument("--all", action="store_true", help="sweep d = 2..5")
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--tol", type=_tol, default=1e-10)
    p.add_argument("--fiducial", default=None,
                   help="fiducial catalog entry to use instead of the "
                        "builtin/catalog one")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", help="convert between state representations")
    p.add_argument("--to", choices=STATE_KEYS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--fiducial", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("tomography", help="simulate SIC tomography of a state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shots", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--fiducial", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tomography)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every output passes a finiteness gate first, so numpy's warnings
        # on the way there would only come before its error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    # OverflowError: a flag value beyond what numpy can take
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
