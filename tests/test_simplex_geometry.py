import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sic_simplex.simplex_geometry import (MEMBERSHIP_TOL, build_simplex_frame,
                                          to_point, to_probabilities,
                                          facet_distance, sum_p_squared)


def test_line_segment():
    frame = build_simplex_frame(1)
    np.testing.assert_allclose(frame.vertices, [[1.0], [-1.0]], atol=1e-15)
    assert abs(frame.vertices[0] @ frame.vertices[1] + 1.0) < 1e-15


def test_tetrahedron_vertex_norms():
    frame = build_simplex_frame(3)
    norms = np.linalg.norm(frame.vertices, axis=1)
    np.testing.assert_allclose(norms, np.sqrt(3.0), atol=1e-12)


def test_n8_gram_matrix():
    frame = build_simplex_frame(8)
    gram = frame.vertices @ frame.vertices.T
    assert np.max(np.abs(gram - (9.0 * np.eye(9) - 1.0))) < 1e-10


def test_gram_exactness_and_zero_sum():
    for n in range(1, 36):
        frame = build_simplex_frame(n)
        gram = frame.vertices @ frame.vertices.T
        assert np.max(np.abs(gram - ((n + 1.0) * np.eye(n + 1) - 1.0))) < 1e-10
        assert np.max(np.abs(frame.vertices.sum(axis=0))) < 1e-10


def test_first_n_vertices_form_basis():
    frame = build_simplex_frame(7)
    sub = frame.vertices[:7]
    assert abs(np.linalg.det(sub @ sub.T)) > 1.0


def test_rejects_n_below_one():
    with pytest.raises(ValueError):
        build_simplex_frame(0)


def test_uniform_maps_to_barycenter():
    frame = build_simplex_frame(5)
    s = to_point(np.full(6, 1.0 / 6.0), frame)
    assert np.max(np.abs(s)) < 1e-14


def test_point_mass_maps_to_vertex():
    frame = build_simplex_frame(3)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(to_point(p, frame), frame.vertices[0], atol=1e-14)


def test_to_point_validates():
    frame = build_simplex_frame(3)
    with pytest.raises(ValueError):
        to_point(np.full(5, 0.2), frame)        # wrong length
    with pytest.raises(ValueError):
        to_point(np.array([0.5, 0.5, 0.5, -0.5]), frame)  # negative entry
    with pytest.raises(ValueError):
        to_point(np.full(4, 0.3), frame)        # sums to 1.2


def test_to_point_range_gate_is_inclusive():
    frame = build_simplex_frame(3)
    lo, hi = -MEMBERSHIP_TOL, 1.0 + MEMBERSHIP_TOL
    # each row sums to 1 within the sum check
    for row in ([lo, MEMBERSHIP_TOL, 0.5, 0.5], [hi, lo / 2, lo / 2, 0.0]):
        to_point(np.array([row, [0.25] * 4]), frame)
    for row in ([np.nextafter(lo, -1.0), MEMBERSHIP_TOL, 0.5, 0.5],
                [np.nextafter(hi, 2.0), lo / 2, lo / 2, 0.0],
                [np.nan, 0.0, 0.5, 0.5]):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            to_point(np.array([[0.25] * 4, row]), frame)


def test_to_point_maps_an_empty_batch():
    frame = build_simplex_frame(3)
    assert to_point(np.empty((0, 4)), frame).shape == (0, 3)


@pytest.mark.parametrize("n", [3, 8, 15, 24])
def test_batched_to_point_matches_rows(n):
    frame = build_simplex_frame(n)
    p = np.random.default_rng(n).dirichlet(np.ones(n + 1), size=20)
    s = to_point(p, frame)
    assert s.shape == (20, n)
    for p_row, s_row in zip(p, s):
        assert np.max(np.abs(to_point(p_row, frame) - s_row)) <= 1e-15


@pytest.mark.parametrize("defect", ["negative", "above_one", "sum", "nan"])
def test_batched_to_point_rejects_any_bad_row(defect):
    frame = build_simplex_frame(3)
    p = np.full((6, 4), 0.25)
    if defect == "negative":
        p[4] = [0.5, 0.5, 0.5, -0.5]
    elif defect == "above_one":
        p[4] = [1.5, -0.1, -0.2, -0.2]
    elif defect == "sum":
        p[4] = 0.3
    else:
        p[4, 2] = np.nan
    with pytest.raises(ValueError):
        to_point(p, frame)


@pytest.mark.parametrize("n", [3, 8, 15, 24])
def test_roundtrip_random_distributions(n):
    frame = build_simplex_frame(n)
    rng = np.random.default_rng(n)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(n + 1))
        q, inside = to_probabilities(to_point(p, frame), frame)
        assert inside
        assert np.max(np.abs(q - p)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=9, max_size=9))
def test_roundtrip_hypothesis(weights):
    frame = build_simplex_frame(8)
    p = np.array(weights)
    p /= p.sum()
    q, inside = to_probabilities(to_point(p, frame), frame)
    assert inside
    assert np.max(np.abs(q - p)) < 1e-12


def test_barycenter_recovers_uniform():
    frame = build_simplex_frame(4)
    p, inside = to_probabilities(np.zeros(4), frame)
    assert inside
    np.testing.assert_allclose(p, 0.2, atol=1e-14)


def test_vertex_recovers_point_mass():
    frame = build_simplex_frame(3)
    p, inside = to_probabilities(frame.vertices[0], frame)
    assert inside
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_outside_point_is_flagged_not_raised():
    frame = build_simplex_frame(3)
    p, inside = to_probabilities(2.0 * frame.vertices[0], frame)
    assert not inside
    assert np.min(p) < -1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_point_past_a_vertex_within_the_lower_bound_is_outside(d):
    # p_0 = 1 + 2 tol, every other p_j = -2 tol / n >= -tol: only the upper
    # bound of the membership test can refuse this point
    n = d * d - 1
    frame = build_simplex_frame(n)
    p = np.full(n + 1, -2.0 * MEMBERSHIP_TOL / n)
    p[0] = 1.0 + 2.0 * MEMBERSHIP_TOL
    p_back, inside = to_probabilities(p @ frame.vertices, frame)
    assert p_back.min() >= -MEMBERSHIP_TOL
    assert inside is False


@pytest.mark.parametrize("n", [1, 3, 8, 24, 63])
def test_to_probabilities_is_the_affine_map_bit_for_bit(n):
    frame = build_simplex_frame(n)
    rng = np.random.default_rng(n)
    for s in rng.normal(scale=2.0, size=(20, n)):
        p, _ = to_probabilities(s, frame)
        assert np.array_equal(p, (frame.vertices @ s + 1.0) / (frame.n + 1.0))


def _flip_scan(frame, direction, t0):
    """(p, inside) at each of the 2001 floats t nearest t0 on the ray
    s = t * direction."""
    steps = t0 + np.spacing(t0) * np.arange(-1000, 1001)
    return [(((frame.vertices @ s + 1.0) / (frame.n + 1.0)),
             to_probabilities(s, frame)[1])
            for s in steps[:, None] * direction]


@pytest.mark.parametrize("n", [3, 15, 24, 63])
def test_inside_flips_exactly_at_the_upper_bound(n):
    # toward vertex 0, p_0 reaches 1 + tol while every other p_j is
    # -tol / n, so only the upper bound decides; the scan meets the bound
    # itself, which is still inside
    frame = build_simplex_frame(n)
    scan = _flip_scan(frame, frame.vertices[0],
                      1.0 + MEMBERSHIP_TOL * (n + 1.0) / n)
    for p, inside in scan:
        assert p.min() >= -MEMBERSHIP_TOL
        assert inside == (p.max() <= 1.0 + MEMBERSHIP_TOL)
    assert any(p.max() == 1.0 + MEMBERSHIP_TOL and inside
               for p, inside in scan)
    assert {inside for _, inside in scan} == {True, False}


@pytest.mark.parametrize("n", [3, 8, 15, 24, 63])
def test_inside_flips_exactly_at_the_lower_bound(n):
    # away from vertex 0, p_0 falls through -tol while every other p_j stays
    # below 1, so only the lower bound decides
    frame = build_simplex_frame(n)
    scan = _flip_scan(frame, -frame.vertices[0],
                      1.0 / n + MEMBERSHIP_TOL * (n + 1.0) / n)
    for p, inside in scan:
        assert p.max() <= 1.0
        assert inside == (p.min() >= -MEMBERSHIP_TOL)
    assert {inside for _, inside in scan} == {True, False}


def test_facet_distance_tetrahedron():
    assert abs(facet_distance(3, 0) - np.sqrt(3.0)) < 1e-15
    assert abs(facet_distance(3, 2) - 1.0 / np.sqrt(3.0)) < 1e-15
    assert abs(facet_distance(3, 1) - 1.0) < 1e-15


def test_facet_distance_matches_centroid_norm():
    # centroid-norm oracle: the 1-facet through t_1, t_2 has centroid
    # (t_1 + t_2)/2, whose norm is the distance from the origin
    frame = build_simplex_frame(3)
    centroid = 0.5 * (frame.vertices[0] + frame.vertices[1])
    assert abs(np.linalg.norm(centroid) - facet_distance(3, 1)) < 1e-12


def test_facet_distance_chain():
    for n in range(1, 36):
        dists = [facet_distance(n, m) for m in range(n + 1)]
        assert abs(dists[0] - np.sqrt(n)) < 1e-14
        assert dists[-1] == 0.0
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_facet_distance_range_checks():
    with pytest.raises(ValueError):
        facet_distance(3, -1)
    with pytest.raises(ValueError):
        facet_distance(3, 4)


def test_sum_p_squared_special_points():
    frame = build_simplex_frame(5)
    assert abs(sum_p_squared(np.zeros(5), frame) - 1.0 / 6.0) < 1e-14
    assert abs(sum_p_squared(frame.vertices[0], frame) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [0, 1, 2, 4, 7])
def test_sum_p_squared_on_facet_spheres(m):
    # |s| = d_m implies sum p_i^2 = 1/(m+1), any direction
    n = 8
    frame = build_simplex_frame(n)
    rng = np.random.default_rng(m)
    u = rng.normal(size=n)
    u *= facet_distance(n, m) / np.linalg.norm(u)
    assert abs(sum_p_squared(u, frame) - 1.0 / (m + 1.0)) < 1e-12


def test_sum_p_squared_matches_direct_sum():
    frame = build_simplex_frame(8)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = to_point(rng.dirichlet(np.ones(9)), frame)
        p, _ = to_probabilities(s, frame)
        assert abs(sum_p_squared(s, frame) - float(p @ p)) < 1e-12
