import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repstab as rs
from repstab import schatten
from repstab.errors import NumericalError, ValidationError
from repstab.rng import random_hermitian, random_unitary
from repstab.schatten import schatten_norm, singular_values

from conftest import hermitian_sqrt


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(3)), [1, 1, 1], atol=1e-14)


def test_singular_values_signed_diagonal():
    np.testing.assert_allclose(singular_values(np.diag([1.0, -1.0]) - np.eye(2)),
                               [2.0, 0.0], atol=1e-14)


def test_singular_values_against_eigendecomposition_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None))[::-1]
    np.testing.assert_allclose(singular_values(a), expected, atol=1e-10)


def test_schatten_norm_basics():
    assert schatten_norm(np.zeros((3, 3)), 2.0) == 0.0
    for n in (2, 5):
        for p in (1.0, 2.0, 3.5):
            assert schatten_norm(np.eye(n), p) == pytest.approx(n ** (1 / p), abs=1e-12)
    assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-12)


def test_normalized_norm_identity_is_one():
    for n in (1, 2, 7):
        for p in (1.0, 1.5, 2.0, 4.0):
            assert rs.schatten_norm_normalized(np.eye(n), p) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_normalized_norm_sign_flip(p):
    a = np.diag([1.0, -1.0]) - np.eye(2)
    assert rs.schatten_norm_normalized(a, p) == pytest.approx(2 ** (1 - 1 / p), abs=1e-12)


def test_normalized_norm_requires_square():
    with pytest.raises(ValidationError, match="square"):
        rs.schatten_norm_normalized(np.ones((2, 3)), 2.0)


def test_exponent_validation():
    with pytest.raises(ValidationError, match="exponent"):
        schatten_norm(np.eye(2), 0.5)


def test_rep_distance_basics(z2, z2_table):
    triv = rs.rep_from_multiplicities(z2_table, [2, 0])
    assert rs.rep_distance(triv, triv, 2.0) == 0.0
    u = np.stack([np.eye(2)])
    assert rs.rep_distance(u, -u, 3.0) == pytest.approx(2.0, abs=1e-12)
    one = rs.rep_from_multiplicities(z2_table, [1, 0])
    sign = rs.rep_from_multiplicities(z2_table, [0, 1])
    assert rs.rep_distance(one, sign, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_rep_distance_dimension_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        rs.rep_distance(np.stack([np.eye(2)]), np.stack([np.eye(3)]), 2.0)


def test_nearest_unitary_fixes_unitary():
    rng = np.random.default_rng(0)
    u = random_unitary(4, rng)
    np.testing.assert_allclose(rs.nearest_unitary(u), u, atol=1e-12)


def test_nearest_unitary_positive_diagonal():
    np.testing.assert_allclose(rs.nearest_unitary(np.diag([2.0, 0.5])), np.eye(2), atol=1e-14)


def test_nearest_unitary_polar_reconstruction():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = rs.nearest_unitary(a)
    np.testing.assert_allclose(u @ hermitian_sqrt(a.conj().T @ a), a, atol=1e-9)


def test_nearest_unitary_rejects_singular():
    with pytest.raises(NumericalError, match="rank"):
        rs.nearest_unitary(np.diag([1.0, 0.0]))


def test_nearest_unitary_cancels_positive_factor():
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = random_unitary(4, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pos = h @ h.conj().T + 0.1 * np.eye(4)
        np.testing.assert_allclose(rs.nearest_unitary(u @ pos), u, atol=1e-9)


def test_factorizations_report_svd_failure_as_numerical_error(monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericalError, match="SVD failed"):
        rs.nearest_unitary(np.eye(2))
    with pytest.raises(NumericalError, match="SVD failed"):
        rs.threshold_partial_isometry(np.eye(2), 0.5)


def test_threshold_partial_isometry_identity():
    t, right, left = rs.threshold_partial_isometry(np.eye(3), 0.5)
    np.testing.assert_allclose(t, np.eye(3), atol=1e-14)
    assert right.shape == (3, 3) and left.shape == (3, 3)


def test_threshold_partial_isometry_drops_small_values():
    t, right, left = rs.threshold_partial_isometry(np.diag([1.0, 0.1]), 0.5)
    np.testing.assert_allclose(t, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(np.abs(right.T), [[1.0, 0.0]], atol=1e-14)


def test_threshold_partial_isometry_projection_property():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t, right, left = rs.threshold_partial_isometry(a, 0.5)
    proj = t.conj().T @ t
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(proj, right @ right.conj().T, atol=1e-10)
    # annihilates the orthogonal complement of the right subspace
    comp = np.eye(4) - right @ right.conj().T
    assert np.abs(t @ comp).max() < 1e-10


def test_threshold_empty_keep_is_zero_map():
    t, right, left = rs.threshold_partial_isometry(0.01 * np.eye(2), 0.5)
    assert right.shape == (2, 0)
    np.testing.assert_allclose(t, np.zeros((2, 2)), atol=1e-14)


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, v = random_unitary(5, rng), random_unitary(5, rng)
        for p in (1.0, 2.0, 3.0):
            assert rs.schatten_norm_normalized(u @ a @ v, p) == pytest.approx(
                rs.schatten_norm_normalized(a, p), abs=1e-10)


def test_power_mean_monotonicity_in_p():
    rng = np.random.default_rng(8)
    ps = [1.0, 1.5, 2.0, 3.0, 4.0]
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        vals = [rs.schatten_norm_normalized(a, p) for p in ps]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_distance_triangle_inequality(z2, z2_table):
    rng = np.random.default_rng(5)
    mats = [np.stack([random_unitary(4, rng), random_unitary(4, rng)]) for _ in range(3)]
    for p in (1.0, 2.0, 4.0):
        d01 = rs.rep_distance(mats[0], mats[1], p)
        d12 = rs.rep_distance(mats[1], mats[2], p)
        d02 = rs.rep_distance(mats[0], mats[2], p)
        assert d02 <= d01 + d12 + 1e-12


def test_nan_rejected():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="NaN"):
        singular_values(bad)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_normalized_norm_rejects_empty_matrix(p):
    with pytest.raises(ValidationError, match="nonempty"):
        rs.schatten_norm_normalized(np.zeros((0, 0)), p)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_rep_distance_rejects_empty_matrices(p):
    empty = np.zeros((3, 0, 0))
    with pytest.raises(ValidationError, match="nonempty"):
        rs.rep_distance(empty, empty, p)


def _reference_norm(a, p):
    """p-Schatten norm from the per-matrix singular values."""
    sv = singular_values(a)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0
    return sv[0] * np.sum((sv / sv[0]) ** p) ** (1.0 / p)


def _assert_matches_reference(stack, p):
    got = schatten._norms(stack, p)
    want = np.array([_reference_norm(a, p) for a in stack])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _complex_stack(rng, n, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((n, rows, cols))
                    + 1j * rng.standard_normal((n, rows, cols)))


ORACLE_PS = [1.0, 1.5, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("p", ORACLE_PS)
@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (1, 5), (24, 24)])
def test_stacked_norm_matches_singular_values(p, shape):
    rng = np.random.default_rng(100 * shape[0] + shape[1])
    stack = _complex_stack(rng, 5, *shape)
    stack[2] = 0.0
    _assert_matches_reference(stack, p)
    assert schatten._norms(stack, p)[2] == 0.0


@pytest.mark.parametrize("p", ORACLE_PS)
@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
def test_stacked_norm_scaling_extremes(p, scale):
    rng = np.random.default_rng(7)
    stack = _complex_stack(rng, 3, 7, 5, scale)
    _assert_matches_reference(stack, p)
    # the same matrices at unit scale give the same norms up to the scale
    np.testing.assert_allclose(schatten._norms(stack, p) / scale,
                               schatten._norms(stack / scale, p), rtol=1e-12)


@pytest.mark.parametrize("p", ORACLE_PS)
def test_stacked_norm_on_unitary_differences(p):
    # U - U exp(i eps H), the shape of every defect and distance near an
    # exact representation, down to differences at rounding level
    rng = np.random.default_rng(11)
    dim = 16
    u = random_unitary(dim, rng)
    h = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(h)
    for eps in 10.0 ** -np.arange(2, 15):
        stack = np.stack([u - u @ ((v * np.exp(1j * e * w)) @ v.conj().T)
                          for e in (eps, 3 * eps)])
        _assert_matches_reference(stack, p)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), n=st.integers(1, 4),
       log_scale=st.floats(-150, 150), p=st.sampled_from(ORACLE_PS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_norm_property(rows, cols, n, log_scale, p, seed):
    rng = np.random.default_rng(seed)
    stack = _complex_stack(rng, n, rows, cols, 10.0 ** log_scale)
    _assert_matches_reference(stack, p)


def test_max_normalized_norm_of_empty_stack_is_zero():
    assert schatten.max_normalized_norm(np.zeros((0, 3, 3)), 1.0) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("shape", [(8, 8), (9, 4), (4, 9)])
def test_zero_members_take_no_kernel(monkeypatch, p, shape):
    # zeros read exactly 0 and never reach the SVD; every other member reads
    # as it does alone, whatever zeros share its stack
    rng = np.random.default_rng(21)
    stack = _complex_stack(rng, 6, *shape)
    stack[[0, 2, 3]] = 0.0
    alone = [schatten_norm(a, p) for a in stack]
    stacks = []
    real_svd = np.linalg.svd

    def recorded_svd(a, *args, **kwargs):
        stacks.append(a.copy())
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    got = schatten._norms(stack, p)
    assert got[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(got[[1, 4, 5]], np.array(alone)[[1, 4, 5]], rtol=1e-15, atol=0.0)
    assert all(a.reshape(len(a), -1).any(axis=1).all() for a in stacks)
    assert len(stacks) == (p not in (2.0, 4.0))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_a_stack_of_zeros_takes_no_kernel(monkeypatch, p):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran on a stack of zeros")

    for name in ("svd", "norm"):
        monkeypatch.setattr(np.linalg, name, no_kernel)
    monkeypatch.setattr(np, "einsum", no_kernel)
    assert schatten._norms(np.zeros((4, 5, 5), dtype=complex), p).tolist() == [0.0] * 4
    assert schatten.max_normalized_norm(np.zeros((2, 3, 3)), p) == 0.0
