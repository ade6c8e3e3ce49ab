"""Acceptance suite: every release-gating check at its stated tolerance,
one pass/fail line per criterion (run with pytest -s to see them)."""

import time

import numpy as np
import pytest

from sic_simplex import bloch
from sic_simplex.simplex_geometry import (build_simplex_frame, facet_distance,
                                          sum_p_squared, to_point,
                                          to_probabilities)
from sic_simplex.sic_povm import (build_sic, find_fiducial,
                                  qubit_tetrahedron_fiducial)
from sic_simplex.state_simplex import (MIXED_STATE, PURE_STATE, classify_point,
                                       find_nonstate_sphere_point,
                                       simulate_tomography,
                                       state_to_probabilities,
                                       verify_b_equals_q)
from sic_simplex.su_basis import build_su_basis, structure_constants

DIMS = (2, 3, 4, 5)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_point_equals_bloch_vector(contexts):
    start = time.time()
    worst = {d: verify_b_equals_q(contexts[d], samples=1000, seed=2026)
             for d in DIMS}
    elapsed = time.time() - start
    ok = all(v < 1e-10 for v in worst.values()) and elapsed < 30.0
    detail = ("max deviations " +
              ", ".join(f"d={d}: {v:.2e}" for d, v in worst.items()) +
              f" ({elapsed:.1f}s)")
    _report(1, "simplex point of SIC probabilities equals Bloch vector",
            ok, detail)


def test_criterion_2_pure_state_sum_p_squared(contexts):
    targets = {2: 1.0 / 3.0, 3: 1.0 / 6.0, 4: 1.0 / 10.0, 5: 1.0 / 15.0}
    worst = {}
    for d in DIMS:
        ctx = contexts[d]
        rng = np.random.default_rng(500 + d)
        dev = 0.0
        for _ in range(500):
            p = state_to_probabilities(bloch.random_pure_state(d, rng), ctx)
            dev = max(dev, abs(float(p @ p) - targets[d]))
        worst[d] = dev
    ok = all(v < 1e-10 for v in worst.values())
    detail = ", ".join(f"d={d}: {v:.2e}" for d, v in worst.items())
    _report(2, "pure states have sum p_i^2 = 2/(d(d+1))", ok, detail)


def test_criterion_3_sic_conditions():
    details = []
    ok = True
    for d in DIMS:
        start = time.time()
        if d == 2:
            fid = qubit_tetrahedron_fiducial()
        else:
            fid = find_fiducial(d, seed=1, restarts=10)
        elapsed = time.time() - start
        basis = build_su_basis(d)
        sic = build_sic(fid, basis)
        sum_err = np.max(np.abs(sic.effects.sum(axis=0) - np.eye(d)))
        gram = sic.bloch_dirs @ sic.bloch_dirs.T
        gram_err = np.max(np.abs(
            gram - (d * d * np.eye(d * d) - 1.0) / (d + 1.0) ** 2))
        ok_d = (fid.residual < 1e-8 and sum_err < 1e-8 and gram_err < 1e-8
                and elapsed < 60.0)
        ok = ok and ok_d
        details.append(f"d={d}: residual {fid.residual:.1e}, "
                       f"sum {sum_err:.1e}, gram {gram_err:.1e}, {elapsed:.1f}s")
    _report(3, "SIC fiducials found and conditions hold", ok, "; ".join(details))


def test_criterion_4_tangency_identity():
    m_pure_expected = {2: 2, 3: 5, 4: 9, 5: 14, 6: 20, 7: 27, 8: 35}
    ok = True
    worst = 0.0
    for d in range(2, 9):
        m_pure = (d + 2) * (d - 1) // 2
        ok = ok and (m_pure == m_pure_expected[d])
        lhs = facet_distance(d * d - 1, m_pure)
        rhs = np.sqrt((d - 1.0) / (d + 1.0))
        rel = abs(lhs - rhs) / rhs
        worst = max(worst, rel)
        ok = ok and rel < 1e-14
    _report(4, "pure sphere is tangent to the (d+2)(d-1)/2 facets", ok,
            f"max relative error {worst:.2e}")


def test_criterion_5_pure_state_bloch_conditions():
    ok = True
    details = []
    for d in DIMS:
        basis = build_su_basis(d)
        sc = structure_constants(basis)
        rng = np.random.default_rng(900 + d)
        pure_pass = sum(
            bloch.is_pure(bloch.to_bloch(bloch.random_pure_state(d, rng), basis),
                          sc)
            for _ in range(500))
        mixed_fail = sum(
            not bloch.is_pure(
                bloch.to_bloch(bloch.random_density_matrix(d, rng), basis), sc)
            for _ in range(500))
        ok = ok and pure_pass == 500 and mixed_fail == 500
        details.append(f"d={d}: {pure_pass}/500 pure, {mixed_fail}/500 mixed")
    _report(5, "norm and star-product conditions characterize purity", ok,
            "; ".join(details))


def test_criterion_6_proper_subset_witness(contexts):
    details = []
    ok = True
    for d in (3, 4, 5):
        ctx = contexts[d]
        s = find_nonstate_sphere_point(ctx, seed=1)
        r_pure = np.sqrt((d - 1.0) / (d + 1.0))
        p, inside = to_probabilities(s, ctx.frame)
        _, min_eig = bloch.is_state(s, ctx.basis)
        ok_d = (abs(np.linalg.norm(s) - r_pure) < 1e-12 and inside
                and np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)
                and min_eig < -1e-6)
        ok = ok and ok_d
        details.append(f"d={d}: min eig {min_eig:.3f}")
    # for qubits the pure sphere is the inner sphere: every point a state
    ctx = contexts[2]
    rng = np.random.default_rng(321)
    dirs = rng.normal(size=(10 ** 5, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r_pure = 1.0 / np.sqrt(3.0)
    states = sum(classify_point(r_pure * u, ctx) in (MIXED_STATE, PURE_STATE)
                 for u in dirs)
    ok = ok and states == 10 ** 5
    details.append(f"d=2: {states}/100000 sphere points are states")
    _report(6, "sphere points inside the simplex need not be states "
               "(except d=2)", ok, "; ".join(details))


def test_criterion_7_simplex_oracle_equivalence():
    worst_rt = 0.0
    worst_p2 = 0.0
    for n in (3, 8, 15, 24):
        frame = build_simplex_frame(n)
        rng = np.random.default_rng(n)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(n + 1))
            s = to_point(p, frame)
            q, inside = to_probabilities(s, frame)
            assert inside
            worst_rt = max(worst_rt, float(np.max(np.abs(q - p))))
            worst_p2 = max(worst_p2, abs(sum_p_squared(s, frame) - float(q @ q)))
    ok = worst_rt < 1e-12 and worst_p2 < 1e-12
    _report(7, "distribution-point roundtrip and sum p^2 identity", ok,
            f"roundtrip {worst_rt:.2e}, sum p^2 {worst_p2:.2e}")


def test_criterion_8_tomography_scaling(contexts):
    ctx = contexts[2]
    rho = bloch.random_density_matrix(2, 11)   # interior target state
    n_shots = 10 ** 4
    med = {}
    for shots in (n_shots, 100 * n_shots):
        dists = [simulate_tomography(rho, ctx, shots, seed=1000 + k).trace_distance
                 for k in range(50)]
        med[shots] = float(np.median(dists))
    ratio = med[n_shots] / med[100 * n_shots]
    ok = 5.0 <= ratio <= 20.0
    _report(8, "trace distance scales like 1/sqrt(shots)", ok,
            f"median ratio {ratio:.2f} (target 10 within factor 2)")
