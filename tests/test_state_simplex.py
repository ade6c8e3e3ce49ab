import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sic_simplex import bloch, state_simplex
from sic_simplex.bloch import PSD_TOL, PURITY_TOL
from sic_simplex.simplex_geometry import (MEMBERSHIP_TOL, facet_distance,
                                          to_probabilities)
from sic_simplex.state_simplex import (OUTSIDE_SIMPLEX, IN_SIMPLEX_NOT_STATE,
                                       MIXED_STATE, PURE_STATE, build_context,
                                       classify_point, find_nonstate_sphere_point,
                                       geometry_report, point_to_state,
                                       probabilities_to_point, project_to_state,
                                       simulate_tomography,
                                       state_to_probabilities, trace_distance,
                                       verify_b_equals_q, verify_report)
from sic_simplex.cli import main


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_context_frame_is_scaled_sic_directions(d, contexts):
    ctx = contexts[d]
    diff = ctx.frame.vertices - (d + 1.0) * ctx.sic.bloch_dirs
    assert np.max(np.abs(diff)) < 1e-12
    norms = np.linalg.norm(ctx.frame.vertices, axis=1)
    assert np.max(np.abs(norms - np.sqrt(d * d - 1.0))) < 1e-8


def test_maximally_mixed_probabilities_are_uniform(contexts):
    for d, ctx in contexts.items():
        p = state_to_probabilities(np.eye(d) / d, ctx)
        np.testing.assert_allclose(p, 1.0 / d ** 2, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_probabilities_match_direct_traces(d, contexts):
    # oracle: p_i = Tr(E_i rho) evaluated with plain matrix products
    ctx = contexts[d]
    rng = np.random.default_rng(d)
    for _ in range(50):
        rho = bloch.random_density_matrix(d, rng)
        p = state_to_probabilities(rho, ctx)
        direct = np.array([np.trace(e @ rho).real for e in ctx.sic.effects])
        assert np.max(np.abs(p - direct)) < 1e-12
        assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_maps_match_rows(d, contexts):
    ctx = contexts[d]
    rhos = bloch.random_density_matrix(d, 50 + d, size=30)
    p = state_to_probabilities(rhos, ctx)
    s = probabilities_to_point(p, ctx)
    assert p.shape == (30, d * d) and s.shape == (30, d * d - 1)
    for rho, p_row, s_row in zip(rhos, p, s):
        assert np.max(np.abs(state_to_probabilities(rho, ctx) - p_row)) <= 1e-15
        assert np.max(np.abs(probabilities_to_point(p_row, ctx) - s_row)) <= 1e-15


@pytest.mark.parametrize("defect", ["non_hermitian", "trace", "nan"])
def test_batched_probabilities_reject_any_bad_row(defect, contexts):
    rhos = bloch.random_density_matrix(3, 1, size=8)
    if defect == "non_hermitian":
        rhos[6, 2, 0] += 1e-9
    elif defect == "trace":
        rhos[6] *= 1.0 + 1e-9
    else:
        rhos[6, 0, 2] = np.nan
    with pytest.raises(ValueError):
        state_to_probabilities(rhos, contexts[3])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_probabilities_of_a_sic_state(d, contexts):
    # rho = d E_1: the overlap law gives p_1 = 1/d, p_j = 1/(d(d+1))
    ctx = contexts[d]
    rho = d * ctx.sic.effects[0]
    p = state_to_probabilities(rho, ctx)
    direct = np.array([np.trace(e @ rho).real for e in ctx.sic.effects])
    assert np.max(np.abs(p - direct)) < 1e-12
    assert abs(p[0] - 1.0 / d) < 1e-10
    assert np.max(np.abs(p[1:] - 1.0 / (d * (d + 1.0)))) < 1e-10
    assert abs(p @ p - 2.0 / (d * (d + 1.0))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_states_sum_p_squared_law(d, contexts):
    ctx = contexts[d]
    target = 2.0 / (d * (d + 1.0))
    rng = np.random.default_rng(70 + d)
    for _ in range(100):
        p = state_to_probabilities(bloch.random_pure_state(d, rng), ctx)
        assert abs(p @ p - target) < 1e-10


def test_uniform_probabilities_map_to_origin(contexts):
    ctx = contexts[3]
    s = probabilities_to_point(np.full(9, 1.0 / 9.0), ctx)
    assert np.max(np.abs(s)) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_states_stay_inside_pure_sphere(d, contexts):
    ctx = contexts[d]
    bound = np.sqrt((d - 1.0) / (d + 1.0)) + 1e-10
    rng = np.random.default_rng(80 + d)
    for _ in range(100):
        p = state_to_probabilities(bloch.random_density_matrix(d, rng), ctx)
        assert np.linalg.norm(probabilities_to_point(p, ctx)) <= bound


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_states_land_on_the_sphere(d, contexts):
    # |s|^2 = (d-1)/(d+1) for the point reached through the probability map
    ctx = contexts[d]
    target = (d - 1.0) / (d + 1.0)
    rng = np.random.default_rng(85 + d)
    for _ in range(100):
        p = state_to_probabilities(bloch.random_pure_state(d, rng), ctx)
        s = probabilities_to_point(p, ctx)
        assert abs(s @ s - target) < 1e-10


def test_basis_ordering_invariance():
    # the identity between simplex points and Bloch vectors cannot depend on
    # how the su(d) basis is ordered
    from sic_simplex.sic_povm import build_sic, get_fiducial
    from sic_simplex.simplex_geometry import SimplexFrame
    from sic_simplex.state_simplex import QuantumSimplexContext
    from sic_simplex.su_basis import SuBasis, build_su_basis, structure_constants

    d = 3
    plain = build_su_basis(d)
    perm = np.random.default_rng(17).permutation(d * d - 1)
    shuffled = SuBasis(d=d, matrices=plain.matrices[perm])
    sc = structure_constants(shuffled)
    fid = get_fiducial(d, seed=1)
    sic = build_sic(fid, shuffled)
    frame = SimplexFrame(n=d * d - 1, vertices=(d + 1.0) * sic.bloch_dirs)
    ctx = QuantumSimplexContext(d=d, basis=shuffled, sc=sc, sic=sic, frame=frame)
    assert verify_b_equals_q(ctx, samples=100, seed=3) < 1e-10


def test_identity_map_on_maximally_mixed(contexts):
    ctx = contexts[3]
    rho = np.eye(3) / 3.0
    r = bloch.to_bloch(rho, ctx.basis)
    s = probabilities_to_point(state_to_probabilities(rho, ctx), ctx)
    assert np.max(np.abs(s - r)) < 1e-14


@pytest.mark.parametrize("samples", [1, 999, 1000, 12345])
@pytest.mark.parametrize("d", [2, 3, 5, 8, 11, 100])
def test_sample_blocks_fit_the_byte_budget(d, samples):
    blocks = list(state_simplex.sample_blocks(samples, d))
    assert sum(blocks) == samples
    assert len(set(blocks[:-1])) <= 1 and blocks[-1] <= blocks[0]
    stack_bytes = blocks[0] * d * d * np.dtype(complex).itemsize
    assert stack_bytes <= state_simplex.SAMPLE_BLOCK_BYTES or blocks[0] == 1


def test_sample_blocks_at_the_verify_dimensions():
    assert list(state_simplex.sample_blocks(1000, 2)) == [1000]
    assert list(state_simplex.sample_blocks(1000, 8)) == [128] * 7 + [104]
    assert list(state_simplex.sample_blocks(3, 100)) == [1, 1, 1]


def test_sample_blocks_memory_is_flat_in_the_sample_count():
    # checked on a small count first, so that sizes built eagerly fail here
    # instead of filling memory below
    assert isinstance(state_simplex.sample_blocks(1000, 3), Iterator)
    next(state_simplex.sample_blocks(1, 3))   # the once-per-process step
    tracemalloc.start()
    try:
        first = next(state_simplex.sample_blocks(10 ** 15, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == 910
    assert peak < 4096


# one warm verify_report call per d, after two to warm up, in a fresh process
# with one BLAS thread: an earlier test, or BLAS threads started at import,
# could raise glibc's malloc thresholds and hide the faults
FAULT_BUDGET_CHILD = """
import json, resource
from sic_simplex.state_simplex import build_context, verify_report
faults = {}
for d in (3, 5, 8):
    ctx = build_context(d)
    for _ in range(2):
        verify_report(ctx, 1000, 4, 1e-10)
    faults[d] = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verify_report(ctx, 1000, 4, 1e-10)
        faults[d].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the block pages stay mapped by glibc's rule")
def test_warm_verify_takes_no_page_faults(tmp_path):
    catalog = tmp_path / "fiducials.json"
    catalog.write_text((pathlib.Path(__file__).parents[1] / "perfbench"
                        / "fiducials.json").read_text())
    src = pathlib.Path(state_simplex.__file__).parents[1]
    env = {**os.environ, "SIC_SIMPLEX_CATALOG": str(catalog),
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULT_BUDGET_CHILD], env=env,
                         capture_output=True, text=True, check=True).stdout
    faults = json.loads(out)
    assert all(n <= 16 for calls in faults.values() for n in calls), faults


def test_verify_propagates_nan_from_the_frame(contexts):
    ctx = contexts[3]
    vertices = ctx.frame.vertices.copy()
    vertices[4, 2] = np.nan
    bad = dataclasses.replace(
        ctx, frame=dataclasses.replace(ctx.frame, vertices=vertices))
    assert np.isnan(verify_b_equals_q(bad, samples=50, seed=0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_point_equals_bloch_vector(d, contexts):
    assert verify_b_equals_q(contexts[d], samples=200, seed=7) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bloch_formula_matches_simplex_inversion(d, contexts):
    # p_i computed from e_i . r equals (s . t_i + 1)/d^2, the inverse map
    # of the frame, because t_i = (d+1) e_i
    ctx = contexts[d]
    rng = np.random.default_rng(90 + d)
    for _ in range(50):
        rho = bloch.random_density_matrix(d, rng)
        p = state_to_probabilities(rho, ctx)
        s = probabilities_to_point(p, ctx)
        p_inv, inside = to_probabilities(s, ctx.frame)
        assert inside
        assert np.max(np.abs(p - p_inv)) < 1e-12


def test_geometry_report_d2():
    rep = geometry_report(2)
    assert rep["m_pure"] == 2
    assert abs(rep["R_pure"] - 1.0 / np.sqrt(3.0)) < 1e-15
    assert rep["R_pure"] == rep["R_in"]
    assert rep["pure_sphere_is_inner"]
    assert abs(rep["sum_p2_pure"] - 1.0 / 3.0) < 1e-15


def test_geometry_report_d3():
    rep = geometry_report(3)
    assert rep["m_pure"] == 5
    assert abs(rep["R_pure"] - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(rep["sum_p2_pure"] - 1.0 / 6.0) < 1e-15
    assert not rep["pure_sphere_is_inner"]


def test_geometry_report_d4():
    rep = geometry_report(4)
    assert rep["m_pure"] == 9
    assert abs(facet_distance(15, 9) - np.sqrt(3.0 / 5.0)) < 1e-15
    assert abs(rep["R_pure"] - np.sqrt(3.0 / 5.0)) < 1e-15


@pytest.mark.parametrize("d", range(2, 9))
def test_tangency_identity(d):
    n = d * d - 1
    m_pure = (d + 2) * (d - 1) // 2
    lhs = facet_distance(n, m_pure)
    rhs = np.sqrt((d - 1.0) / (d + 1.0))
    assert abs(lhs - rhs) <= 1e-14 * rhs


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("wrong", [lambda x: 2.0 * x, lambda x: np.nan],
                         ids=["doubled", "nan"])
def test_geometry_report_raises_on_inconsistent_radii(d, wrong, monkeypatch):
    # explicit raises, so the checks also hold under python -O
    monkeypatch.setattr(state_simplex, "facet_distance",
                        lambda n, m: wrong(facet_distance(n, m)))
    with pytest.raises(RuntimeError, match=f"d={d}:"):
        geometry_report(d)


def test_geometry_report_rejects_d1():
    with pytest.raises(ValueError):
        geometry_report(1)


def test_report_json_fields():
    obj = geometry_report(3)
    assert obj["m_pure"] == 5
    assert len(obj["d_m"]) == 9
    assert obj["d_m"][-1] == 0.0


@pytest.mark.parametrize(
    "flags, dims", [(["--d", str(d)], [d]) for d in range(2, 6)]
    + [(["--all"], range(2, 6))], ids=["d2", "d3", "d4", "d5", "all"])
def test_verify_writes_the_report(flags, dims, tmp_path):
    # the file `verify --out` writes is the reports, one per dimension
    out = tmp_path / "verify.json"
    assert main(["verify", *flags, "--seed", "7", "--out", str(out)]) == 0
    # the catalog now holds the fiducial the command used for each d
    reports = [verify_report(build_context(d, seed=7), 1000, 7, 1e-10)
               for d in dims]
    assert out.read_text() == json.dumps(reports, sort_keys=True,
                                         indent=2) + "\n"


def test_verify_report_fails_a_deviation_at_the_tolerance(contexts):
    report = verify_report(contexts[3], samples=200, seed=0, tol=1e-10)
    worst = max(report[k] for k in ("max_theorem_deviation",
                                    "max_pure_norm_deviation",
                                    "max_pure_sum_p2_deviation"))
    assert report["passed"] and worst > 0.0
    for tol in (worst, worst / 2):
        assert not verify_report(contexts[3], samples=200, seed=0,
                                 tol=tol)["passed"]


def test_classify_origin_is_mixed(contexts):
    assert classify_point(np.zeros(8), contexts[3]) == MIXED_STATE


@pytest.mark.parametrize("d", [2, 3, 4])
def test_classify_vertex_not_a_state(d, contexts):
    # a vertex has |t_1| = sqrt(d^2-1) > R_pure; its matrix has eigenvalue -1
    ctx = contexts[d]
    assert classify_point(ctx.frame.vertices[0], ctx) == IN_SIMPLEX_NOT_STATE


def test_classify_outside(contexts):
    ctx = contexts[3]
    assert classify_point(2.0 * ctx.frame.vertices[0], ctx) == OUTSIDE_SIMPLEX


def test_classify_pure_and_mixed(contexts):
    ctx = contexts[4]
    rng = np.random.default_rng(13)
    r = bloch.to_bloch(bloch.random_pure_state(4, rng), ctx.basis)
    assert classify_point(r, ctx) == PURE_STATE
    r = bloch.to_bloch(bloch.random_density_matrix(4, rng), ctx.basis)
    assert classify_point(r, ctx) == MIXED_STATE


@pytest.mark.parametrize("d", [3, 4, 5])
def test_nonstate_sphere_points_exist(d, contexts):
    ctx = contexts[d]
    s = find_nonstate_sphere_point(ctx, seed=1)
    r_pure = np.sqrt((d - 1.0) / (d + 1.0))
    assert abs(np.linalg.norm(s) - r_pure) < 1e-12
    p, inside = to_probabilities(s, ctx.frame)
    assert inside
    assert np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)
    _, min_eig = bloch.is_state(s, ctx.basis)
    assert min_eig < -1e-6
    assert classify_point(s, ctx) == IN_SIMPLEX_NOT_STATE


def _oracle_label(s, ctx):
    """classify_point's label from dense, unoptimized formulas."""
    d, n = ctx.d, ctx.frame.n
    p = (ctx.frame.vertices @ s + 1.0) / (n + 1.0)
    if not (np.all(p >= -MEMBERSHIP_TOL) and np.all(p <= 1.0 + MEMBERSHIP_TOL)):
        return OUTSIDE_SIMPLEX
    rho = (np.eye(d) / d + np.sqrt((d + 1.0) / (2.0 * d))
           * np.einsum('a,aij->ij', s, ctx.basis.matrices))
    if np.linalg.eigvalsh(rho)[0] < -PSD_TOL:
        return IN_SIMPLEX_NOT_STATE
    star = np.einsum('abc,a,b->c', ctx.sc.dsym, s, s)
    star_defect = np.linalg.norm(
        star - (d - 2.0) * np.sqrt(2.0 / (d * (d + 1.0))) * s)
    norm_defect = abs(s @ s - (d - 1.0) / (d + 1.0))
    if norm_defect <= PURITY_TOL and star_defect <= PURITY_TOL:
        return PURE_STATE
    return MIXED_STATE


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_classify_matches_dense_oracle(d, contexts):
    ctx = contexts[d]
    rng = np.random.default_rng(70 + d)
    n, k = d * d - 1, 40
    units = rng.normal(size=(2 * k, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    points = np.vstack([
        bloch.to_bloch(bloch.random_pure_state(d, rng, size=k), ctx.basis),
        bloch.to_bloch(bloch.random_density_matrix(d, rng, size=k), ctx.basis),
        np.sqrt((d - 1.0) / (d + 1.0)) * units[:k],
        np.sqrt(n) * rng.uniform(1.01, 1.5, size=(k, 1)) * units[k:],
        ctx.frame.vertices[:8],
    ])
    labels = [classify_point(s, ctx) for s in points]
    assert labels == [_oracle_label(s, ctx) for s in points]
    # every label occurs, so each branch of the oracle was compared
    assert set(labels) == {PURE_STATE, MIXED_STATE, OUTSIDE_SIMPLEX,
                           IN_SIMPLEX_NOT_STATE}


@pytest.fixture(scope="module")
def contexts_to_8(contexts):
    return {**contexts, **{d: build_context(d, seed=1) for d in (7, 8)}}


@pytest.mark.parametrize("d", range(2, 9))
def test_classification_end_to_end(d, contexts_to_8):
    ctx = contexts_to_8[d]
    rng = np.random.default_rng(170 + d)
    n, k = d * d - 1, 30
    units = rng.normal(size=(2 * k, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    points = np.vstack([
        bloch.to_bloch(bloch.random_pure_state(d, rng, size=k), ctx.basis),
        bloch.to_bloch(bloch.random_density_matrix(d, rng, size=k), ctx.basis),
        np.sqrt((d - 1.0) / (d + 1.0)) * units[:k],
        np.sqrt(n) * rng.uniform(1.01, 1.5, size=(k, 1)) * units[k:],
    ])
    if d >= 3:
        points = np.vstack([points, find_nonstate_sphere_point(ctx, seed=d)])
    labels = [classify_point(s, ctx) for s in points]
    assert labels == [_oracle_label(s, ctx) for s in points]
    pure, mixed, sphere, beyond = (labels[j * k:(j + 1) * k] for j in range(4))
    assert pure == [PURE_STATE] * k
    assert mixed == [MIXED_STATE] * k
    assert beyond == [OUTSIDE_SIMPLEX] * k
    if d == 2:
        # the qubit pure sphere is the inscribed sphere, all of it states
        assert set(sphere) == {PURE_STATE}
    else:
        # a sphere point that is a state is pure, which a random point is
        # with probability zero
        assert set(sphere) <= {OUTSIDE_SIMPLEX, IN_SIMPLEX_NOT_STATE}
        assert labels[-1] == IN_SIMPLEX_NOT_STATE


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 5), data=st.data(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_points_are_refused(d, data, bad, contexts):
    ctx = contexts[d]
    n = d * d - 1
    s = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                    max_size=n)))
    s[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(ValueError, match="not finite"):
        to_probabilities(s, ctx.frame)
    with pytest.raises(ValueError, match="not finite"):
        classify_point(s, ctx)


def test_no_nonstate_sphere_point_for_qubits(contexts):
    with pytest.raises(RuntimeError):
        find_nonstate_sphere_point(contexts[2], seed=1)


def test_trace_distance_basics():
    rho = bloch.random_density_matrix(3, 0)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-15


def test_project_to_state_clips_and_renormalizes():
    m = np.diag([1.2, -0.2])
    proj = project_to_state(m)
    np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-15)
    rho = bloch.random_density_matrix(3, 3)
    np.testing.assert_allclose(project_to_state(rho), rho, atol=1e-12)


def test_project_to_state_is_the_nearest_state():
    # clipping and renormalizing gives diag(7/12, 5/12, 0), 0.2461 from m in
    # Hilbert-Schmidt norm; the nearest state is 0.2449 away
    m = np.diag([0.7, 0.5, -0.2])
    proj = project_to_state(m)
    np.testing.assert_allclose(proj, np.diag([0.6, 0.4, 0.0]), atol=1e-15)
    clipped = np.diag([7.0, 5.0, 0.0]) / 12.0
    assert np.linalg.norm(m - proj) < np.linalg.norm(m - clipped) - 1e-3


def test_tomography_deterministic(contexts):
    ctx = contexts[2]
    rho = bloch.random_density_matrix(2, 11)
    a = simulate_tomography(rho, ctx, shots=2000, seed=5)
    b = simulate_tomography(rho, ctx, shots=2000, seed=5)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.trace_distance == b.trace_distance


def test_tomography_of_maximally_mixed(contexts):
    ctx = contexts[3]
    result = simulate_tomography(np.eye(3) / 3.0, ctx, shots=200000, seed=2)
    assert np.max(np.abs(result.counts / 200000 - 1.0 / 9.0)) < 0.01
    assert trace_distance(result.rho_hat_projected, np.eye(3) / 3.0) < 0.01


def test_tomography_pure_qubit_converges(contexts):
    ctx = contexts[2]
    rho = bloch.random_pure_state(2, 21)
    result = simulate_tomography(rho, ctx, shots=10 ** 6, seed=3)
    assert result.trace_distance < 0.01
    bloch.validate_density_matrix(result.rho_hat_projected)


def test_tomography_estimates_are_states(contexts):
    ctx = contexts[3]
    rho = bloch.random_density_matrix(3, 4)
    result = simulate_tomography(rho, ctx, shots=500, seed=9)
    # few shots: raw estimate may be indefinite, projection must fix it
    bloch.validate_density_matrix(result.rho_hat_projected)
    assert result.counts.sum() == 500


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_probability_range_of_states(d, contexts):
    # outcome probabilities of states live in [0, 1/d]
    ctx = contexts[d]
    rng = np.random.default_rng(60 + d)
    top = 0.0
    for _ in range(200):
        p = state_to_probabilities(bloch.random_density_matrix(d, rng), ctx)
        top = max(top, p.max())
        assert p.min() >= -1e-12
        assert p.max() <= 1.0 / d + 1e-12
    print(f"d={d}: empirical max outcome probability {top:.6f} (cap 1/d = {1/d:.6f})")


def test_point_to_state_roundtrip(contexts):
    ctx = contexts[3]
    rho = bloch.random_density_matrix(3, 8)
    s = probabilities_to_point(state_to_probabilities(rho, ctx), ctx)
    np.testing.assert_allclose(point_to_state(s, ctx), rho, atol=1e-12)


def test_build_context_with_explicit_fiducial(contexts):
    from sic_simplex.sic_povm import qubit_tetrahedron_fiducial
    ctx = build_context(2, fiducial=qubit_tetrahedron_fiducial())
    assert ctx.sic.fiducial.source == "builtin"
    assert verify_b_equals_q(ctx, samples=20, seed=0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 5), d_state=st.integers(2, 7),
       size=st.sampled_from([None, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_maps_refuse_a_state_of_another_dimension(d, d_state, size, seed,
                                                   contexts):
    assume(d_state != d)
    rho = bloch.random_density_matrix(d_state, seed, size=size)
    with pytest.raises(ValueError, match=f"expected {d}x{d}"):
        bloch.to_bloch(rho, contexts[d].basis)
    with pytest.raises(ValueError, match=f"expected {d}x{d}"):
        state_to_probabilities(rho, contexts[d])
