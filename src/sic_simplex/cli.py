"""Command-line interface: geometry reports, fiducial search, identity
verification, representation conversion and tomography simulation.

State files are JSON objects {"d": d, key: value} holding exactly one of the
representations rho, bloch, probabilities and point; `_read_state` and
`_state_json` are their only reader and writer, and `sic_povm.json_field`
is the one gate for "d" and the value, as for --fiducial files.  `convert`
and `tomography` read and check the whole file before building a context,
so a refused file never starts a fiducial search or writes the catalog.

Exit status: 0 when every check passed, 1 when a check failed or `find-sic`
did not converge, 2 on bad input.  Output files are deterministic in the
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

import numpy as np

from . import bloch, state_simplex
from .sic_povm import (fiducial_from_json, fiducial_to_json, find_fiducial,
                       json_field, read_json, record_fiducial)
from .simplex_geometry import to_probabilities
from .state_simplex import (build_context, geometry_report, sample_blocks,
                            simulate_tomography, state_to_probabilities,
                            probabilities_to_point, point_to_state,
                            verify_b_equals_q)

GEOMETRY_CSV_COLUMNS = ["d", "R_out", "R_in", "R_pure", "m_pure",
                        "sum_p2_pure", "pure_sphere_is_inner"]
VERIFY_CSV_COLUMNS = ["d", "R_out", "R_in", "R_pure", "m_pure",
                      "sum_p2_pure", "max_theorem_deviation"]
TOMOGRAPHY_CSV_COLUMNS = ["shots", "trace_distance", "seed"]
# the representations a state file may hold, exactly one per file
STATE_KEYS = ("rho", "bloch", "probabilities", "point")


def _dim(value: str) -> int:
    d = int(value)
    if d < 2:
        raise argparse.ArgumentTypeError(f"dimension must be >= 2, got {d}")
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


def _read_state(path: str) -> tuple[int, str, np.ndarray]:
    """A state file's (d, key, value), checked in full before any context
    is built: a JSON object holding exactly one of `STATE_KEYS` (other keys
    are ignored), whose "d" and value pass `json_field`, the value of shape
    (d, d, 2) for rho, (d**2,) for probabilities and (d**2 - 1,) otherwise.
    A rho value is returned as a complex matrix.
    """
    obj = read_json(path)
    keys = [k for k in STATE_KEYS if k in obj] if isinstance(obj, dict) else []
    if len(keys) != 1:
        raise ValueError("input file must be a JSON object holding exactly "
                         "one of: " + ", ".join(STATE_KEYS))
    key = keys[0]
    d, value = json_field(obj, key, lambda d: {
        "rho": (d, d, 2), "probabilities": (d * d,)}.get(key, (d * d - 1,)))
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
    path = getattr(args, "fiducial", None)
    fid = fiducial_from_json(read_json(path)) if path else None
    return build_context(d, fiducial=fid, seed=getattr(args, "seed", 0))


def _cmd_geometry(args) -> int:
    obj = geometry_report(args.d)
    if args.format == "json":
        _write_json(obj, args.out)
    else:
        row = {k: obj[k] for k in GEOMETRY_CSV_COLUMNS}
        _write_csv(GEOMETRY_CSV_COLUMNS, [row], args.out)
    return 0


def _cmd_find_sic(args) -> int:
    fid = find_fiducial(args.d, seed=args.seed, restarts=args.restarts)
    _write_json(fiducial_to_json(fid), args.out)
    print(f"d={args.d} residual={fid.residual:.6e} "
          f"{'converged' if fid.converged else 'NOT CONVERGED'}")
    record_fiducial(fid)
    return 0 if fid.converged else 1


def _verify_one(d: int, args) -> dict:
    ctx = _context(d, args)
    theorem_dev = verify_b_equals_q(ctx, samples=args.samples, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    norm_dev = 0.0
    p2_dev = 0.0
    target_norm2 = (d - 1.0) / (d + 1.0)
    target_p2 = 2.0 / (d * (d + 1.0))
    for size in sample_blocks(args.samples, d):
        rho = bloch.random_pure_state(d, rng, size=size)
        p = state_to_probabilities(rho, ctx)
        s = probabilities_to_point(p, ctx)
        norm_dev = np.maximum(norm_dev, np.max(np.abs(
            np.einsum('ka,ka->k', s, s) - target_norm2)))
        p2_dev = np.maximum(p2_dev, np.max(np.abs(
            np.einsum('ki,ki->k', p, p) - target_p2)))
    geo = geometry_report(d)
    return {
        # d and the geometry fields of the CSV columns
        **{k: geo[k] for k in VERIFY_CSV_COLUMNS if k in geo},
        "samples": args.samples,
        "seed": args.seed,
        "max_theorem_deviation": theorem_dev,
        "max_pure_norm_deviation": float(norm_dev),
        "max_pure_sum_p2_deviation": float(p2_dev),
        "tolerance": args.tol,
        # np.max, unlike max(), turns a NaN deviation into a failure
        "passed": bool(np.max([theorem_dev, norm_dev, p2_dev]) < args.tol),
    }


def _cmd_verify(args) -> int:
    dims = list(range(2, 6)) if args.all else [args.d]
    results = [_verify_one(d, args) for d in dims]
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
    d, key, value = _read_state(args.infile)
    ctx = _context(d, args)
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


def _cmd_tomography(args) -> int:
    d, key, value = _read_state(args.infile)
    if key not in ("rho", "bloch"):
        raise ValueError("tomography input must contain rho or bloch")
    ctx = _context(d, args)
    rho = value if key == "rho" else point_to_state(value, ctx)
    bloch.validate_density_matrix(rho)
    result = simulate_tomography(rho, ctx, shots=args.shots, seed=args.seed)
    row = {"shots": result.shots, "trace_distance": result.trace_distance,
           "seed": args.seed}
    _write_csv(TOMOGRAPHY_CSV_COLUMNS, [row], args.out)
    print(f"shots={args.shots} trace_distance={result.trace_distance:.6e}")
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
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("find-sic", help="search for a SIC fiducial")
    p.add_argument("--d", type=_dim, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, metavar="N",
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
    dims.add_argument("--d", type=_dim)
    dims.add_argument("--all", action="store_true", help="sweep d = 2..5")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fiducial", default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("tomography", help="simulate SIC tomography of a state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    # OverflowError: a flag value out of range, such as a --shots that
    # numpy's sampler cannot take
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
