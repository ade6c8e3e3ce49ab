"""Mutation check of the tolerance gates: tier-1 must fail on every mutant.

Usage, from anywhere in a checkout::

    python3 tools/mutants.py

Each mutant loosens one tolerance or gate of the package by one text
replacement in one file.  For each, the script copies ``src/`` to a
temporary directory, applies the replacement there, and runs tier-1 on the
copy (``python -m pytest -x -q`` with ``PYTHONPATH`` set to the copy).  A
mutant survives when tier-1 passes.  Before the mutants, tier-1 runs once
on an unchanged copy, since a suite that already fails would catch every
mutant.

Exit status: 0 when every mutant is caught, 1 when one survives, 2 when a
replacement does not match its file exactly once, when the copy is not the
package tier-1 imports, or when tier-1 fails on the unchanged copy.  Only
the copies are changed; the checkout is left as it is.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "sic_simplex")

# (file of the package, text, replacement): each loosens one tolerance by
# 10**3 or more, or makes one gate pass everything it can be given
MUTANTS = [
    ("bloch.py", "PSD_TOL = 1e-10", "PSD_TOL = 1e-7"),
    ("bloch.py", "PSD_TOL = 1e-10", "PSD_TOL = 1e-3"),
    ("bloch.py", "PURITY_TOL = 1e-9", "PURITY_TOL = 1e-6"),
    ("sic_povm.py", "MAX_BUILD_RESIDUAL = 1e-6", "MAX_BUILD_RESIDUAL = 1e-3"),
    ("sic_povm.py", "MAX_BUILD_RESIDUAL = 1e-6", "MAX_BUILD_RESIDUAL = 1e-1"),
    ("sic_povm.py", "DEFAULT_TARGET_RESIDUAL = 1e-10",
     "DEFAULT_TARGET_RESIDUAL = 1e-7"),
    ("sic_povm.py", "DEFAULT_TARGET_RESIDUAL = 1e-10",
     "DEFAULT_TARGET_RESIDUAL = 1e-3"),
    ("state_simplex.py", "MIN_WITNESS_NEGATIVITY = 1e-6",
     "MIN_WITNESS_NEGATIVITY = 1e-9"),
    ("sic_povm.py", "POLISH_FLOOR = 1e-14", "POLISH_FLOOR = 1e-11"),
    # to_bloch's imaginary-trace gate
    ("bloch.py", "_max_abs(traces.imag) <= HERM_TRACE_TOL",
     "_max_abs(traces.imag) <= 1.0"),
    # is_pure's star-product gate
    ("bloch.py", "math.sqrt(defect @ defect) <= PURITY_TOL",
     "math.sqrt(defect @ defect) <= 1.0"),
    # to_point's row-sum gate
    ("simplex_geometry.py", "sum_err <= 1e-12", "sum_err <= 1e-3"),
]


def tier1(src: str) -> bool:
    """Whether tier-1 passes with the package imported from `src`; exits 2
    unless `src` is the package it imports."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    where = subprocess.run(
        [sys.executable, "-c",
         "import sic_simplex; print(sic_simplex.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    if not where.startswith(src + os.sep):
        print(f"tier-1 would import {where.strip()}, not the copy in {src}",
              file=sys.stderr)
        sys.exit(2)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def copy_src(tmp: str, mutant=None) -> str:
    """A copy of src/ in the new directory `tmp`, with the mutant's text
    replaced in its file when one is given."""
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        name, old, new = mutant
        path = os.path.join(tmp, PACKAGE, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
    return src


def main() -> int:
    for name, old, _ in MUTANTS:
        with open(os.path.join(ROOT, PACKAGE, name)) as fh:
            count = fh.read().count(old)
        if count != 1:
            print(f"{name}: {old!r} occurs {count} times, not once",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        if not tier1(copy_src(os.path.join(tmp, "unchanged"))):
            print("tier-1 fails on the unchanged package", file=sys.stderr)
            return 2
        survivors = 0
        for i, mutant in enumerate(MUTANTS):
            t0 = time.monotonic()
            caught = not tier1(copy_src(os.path.join(tmp, str(i)), mutant))
            survivors += not caught
            name, old, new = mutant
            print(f"{'caught' if caught else 'SURVIVED'}  {name}: {old} -> "
                  f"{new}  ({time.monotonic() - t0:.1f} s)", flush=True)
    print(f"{survivors} of {len(MUTANTS)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
