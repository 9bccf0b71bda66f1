import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import repstab as rs
from repstab.errors import IsomorphyError, NumericalError
from repstab.intertwiners import DEFAULT_THRESHOLD
import repstab.irreps as irreps_mod
from repstab.intertwiners import _isotypic_polar
from repstab.irreps import direct_sum
from repstab.presets import group_preset, group_preset_names
from repstab.rng import random_hermitian, random_unitary
from repstab.schatten import BOUND_RTOL

from conftest import dense_average, invariance_error, random_rep


def _near_identity(dim, eps, rng):
    """exp(i*eps*H) for a random Hermitian H of unit normalized 2-norm."""
    h = random_hermitian(dim, rng)
    h /= rs.schatten_norm_normalized(h, 2.0)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def _phase_conjugated_pair(table, dim, eps, rng, p):
    """rho and its conjugate by exp(i*eps*H), plus the measured distance."""
    rho1 = random_rep(table, dim, rng)
    rho2 = rs.conjugate_rep(rho1, _near_identity(dim, eps, rng))
    return rho1, rho2, rs.rep_distance(rho1, rho2, p)


def _swapped_summand_pair(table, dim, eps, rng):
    """rho + chi_a against rho + chi_b for two one-dimensional irreducibles
    chi_a and chi_b, the second moved by exp(i*eps*H), both in one random
    basis: the multiplicities differ, so the average drops singular values."""
    a, b = np.flatnonzero(table.dims == 1)[:2]
    base = random_rep(table, dim - 1, rng, conjugate=False)
    w = random_unitary(dim, rng)
    rho1 = rs.conjugate_rep(direct_sum(base, table.irreps[a]), w)
    rho2 = rs.conjugate_rep(direct_sum(base, table.irreps[b]), w @ _near_identity(dim, eps, rng))
    return rho1, rho2


def test_averaged_intertwiner_identity_on_equal_irreducible(s3_table):
    std = s3_table.irreps[2]
    t0 = dense_average(std, std)
    np.testing.assert_allclose(t0, np.eye(2), atol=1e-12)


def test_averaged_intertwiner_trivial_vs_sign_is_zero(z2_table):
    triv = rs.rep_from_multiplicities(z2_table, [1, 0])
    sign = rs.rep_from_multiplicities(z2_table, [0, 1])
    np.testing.assert_allclose(dense_average(triv, sign), [[0.0]], atol=1e-14)
    # no irreducible is common to both sides, so nothing is kept
    with pytest.warns(UserWarning, match="the kept subspaces may be small$"):
        res = rs.invariant_intertwiner(triv, sign, 2.0, table=z2_table)
    assert res.kept_dim == 0 and res.target_basis.shape == (1, 0)
    assert np.array_equal(res.operator, [[0.0]])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_averaged_intertwiner_exactness(s3_table, seed):
    rng = np.random.default_rng(seed)
    rho1 = random_rep(s3_table, 6, rng)
    rho2 = rs.conjugate_rep(rho1, random_unitary(6, rng))
    t0 = dense_average(rho1, rho2)
    err = np.abs(np.matmul(rho2.matrices, t0) - np.matmul(t0, rho1.matrices)).max()
    assert err < 1e-12


def test_invariant_intertwiner_equal_inputs(s3_table):
    rho = random_rep(s3_table, 5, np.random.default_rng(3))
    res = rs.invariant_intertwiner(rho, rho, 2.0, table=s3_table)
    assert res.kept_dim == 5
    np.testing.assert_allclose(res.operator, np.eye(5), atol=1e-10)
    assert res.identity_distance < 1e-10
    assert res.pair_distance == 0.0


@pytest.mark.parametrize("seed,p", [(0, 1.0), (1, 2.0), (2, 4.0)])
def test_invariant_intertwiner_small_conjugation(z3_table, seed, p):
    rng = np.random.default_rng(seed)
    rho1, rho2, delta = _phase_conjugated_pair(z3_table, 6, 1e-2, rng, p)
    assert delta < 0.05
    res = rs.invariant_intertwiner(rho1, rho2, p, table=z3_table)
    assert res.kept_dim == 6
    assert res.identity_distance <= 3 * delta
    # exact intertwining of the thresholded operator
    err = np.abs(np.matmul(rho2.matrices, res.operator)
                 - np.matmul(res.operator, rho1.matrices)).max()
    assert err < 1e-10


def test_invariant_intertwiner_keeps_common_summand(z2, z2_table):
    # trivial+sign against trivial+trivial: the average is diag(1, 0) and only
    # the shared trivial summand survives the threshold
    mixed = rs.rep_from_multiplicities(z2_table, [1, 1])
    doubled = rs.rep_from_multiplicities(z2_table, [2, 0])
    t0 = dense_average(mixed, doubled)
    np.testing.assert_allclose(t0, np.diag([1.0, 0.0]), atol=1e-14)
    with pytest.warns(UserWarning, match="1/4; the kept subspaces may be small$"):
        res = rs.invariant_intertwiner(mixed, doubled, 2.0, table=z2_table)
    assert res.kept_dim == 1
    np.testing.assert_allclose(np.abs(res.source_basis), [[1.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(np.abs(res.target_basis), [[1.0], [0.0]], atol=1e-12)


def test_threshold_knob_changes_kept_subspace(z2_table):
    # conjugating trivial+sign by a rotation by theta makes the average
    # (I + R(2*theta))/2 with both singular values |cos(theta)|; on either
    # side of the fixed cut of 1/2 everything or nothing is kept
    rho1 = rs.rep_from_multiplicities(z2_table, [1, 1])
    for c, kept in ((0.6, 2), (0.4, 0)):
        s = np.sqrt(1.0 - c * c)
        rho2 = rs.conjugate_rep(rho1, np.array([[c, -s], [s, c]]))
        t0 = dense_average(rho1, rho2)
        np.testing.assert_allclose(np.linalg.svd(t0, compute_uv=False), [c, c], atol=1e-12)
        with pytest.warns(UserWarning, match="the kept subspaces may be small$"):
            res = rs.invariant_intertwiner(rho1, rho2, 2.0, table=z2_table)
        assert res.kept_dim == kept
        t, _, _ = rs.threshold_partial_isometry(t0, DEFAULT_THRESHOLD)
        np.testing.assert_allclose(res.operator, t, atol=1e-12)


def test_unitary_intertwiner_equal_inputs(s3_table):
    rho = random_rep(s3_table, 6, np.random.default_rng(5))
    t = rs.unitary_intertwiner(rho, rho, 2.0, table=s3_table)
    np.testing.assert_allclose(t, np.eye(6), atol=1e-10)


def test_unitary_intertwiner_diag_phase_case(z2, z2_table):
    rho1 = rs.rep_from_multiplicities(z2_table, [1, 1])
    u = np.diag([np.exp(0.3j), np.exp(-0.2j)])
    rho2 = rs.conjugate_rep(rho1, u)
    t = rs.unitary_intertwiner(rho1, rho2, 2.0, table=z2_table)
    err = np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max()
    assert err < 1e-8
    assert np.abs(t @ t.conj().T - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_unitary_intertwiner_bound_over_eps(z4, eps):
    table = rs.irrep_table(z4)
    rng = np.random.default_rng(int(1 / eps))
    for p in (1.0, 2.0, 4.0):
        rho1, rho2, delta = _phase_conjugated_pair(table, 8, eps, rng, p)
        t = rs.unitary_intertwiner(rho1, rho2, p, table=table)
        dev = rs.schatten_norm_normalized(t - np.eye(8), p)
        assert dev <= 5 * delta + 1e-12
        err = np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max()
        assert err < 1e-8


def test_unitary_intertwiner_far_isomorphic_pair(s3_table):
    # isomorphic but far apart: the average is far from unitary, yet its
    # polar factor is still an exact unitary intertwiner
    rng = np.random.default_rng(8)
    rho1 = random_rep(s3_table, 6, rng)
    rho2 = rs.conjugate_rep(rho1, random_unitary(6, rng))
    with pytest.warns(UserWarning):
        t = rs.unitary_intertwiner(rho1, rho2, 2.0, table=s3_table)
    err = np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max()
    assert err < 1e-8


def test_unitary_intertwiner_rejects_non_isomorphic(z2_table):
    triv2 = rs.rep_from_multiplicities(z2_table, [2, 0])
    mixed = rs.rep_from_multiplicities(z2_table, [1, 1])
    with pytest.raises(IsomorphyError) as info:
        rs.unitary_intertwiner(triv2, mixed, 2.0, table=z2_table)
    assert info.value.left.tolist() == [2, 0]
    assert info.value.right.tolist() == [1, 1]


def test_padding_distance_zero_for_equal_summands(z2_table):
    rho = rs.rep_from_multiplicities(z2_table, [3, 2])
    sig = rs.rep_from_multiplicities(z2_table, [0, 1])
    measured, bound = rs.direct_sum_padding_distance(rho, sig, sig, 2.0)
    assert measured == 0.0
    assert bound > 0.0


def test_padding_distance_equality_case(z2_table):
    # nine trivial summands, then trivial vs sign in one extra dimension
    rho = rs.rep_from_multiplicities(z2_table, [9, 0])
    sig1 = rs.rep_from_multiplicities(z2_table, [1, 0])
    sig2 = rs.rep_from_multiplicities(z2_table, [0, 1])
    measured, bound = rs.direct_sum_padding_distance(rho, sig1, sig2, 2.0)
    assert measured == pytest.approx(2 / np.sqrt(10), abs=1e-12)
    assert bound == pytest.approx(2 / np.sqrt(10), abs=1e-12)
    assert measured <= bound + 1e-15


def test_padding_distance_random_below_bound(s3_table):
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = random_rep(s3_table, 12, rng)
        sig1 = random_rep(s3_table, 2, rng)
        sig2 = random_rep(s3_table, 2, rng)
        measured, bound = rs.direct_sum_padding_distance(rho, sig1, sig2, 1.0)
        assert measured <= bound + 1e-12


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_realize_measures_no_distances_in_intertwiners(monkeypatch):
    # realize passes no exponent, so no pair distance is ever read; the
    # HNN's Z2 loop is a nontrivial edge group, so realize builds its letter
    from repstab import intertwiners
    ctx = rs.CorrectionContext.build(rs.graph_preset("hnn_Z4_over_Z2"), p=2.0)
    distances = _count_calls(monkeypatch, intertwiners, "rep_distance")
    norms = _count_calls(monkeypatch, intertwiners, "schatten_norm_normalized")
    polars = _count_calls(monkeypatch, intertwiners, "_isotypic_polar")
    rho = rs.realize(rs.uniform_lambda(ctx, 12), ctx, seed=0)
    assert rs.measure_defect(rho, ctx.gog, 2.0) < 1e-10
    assert polars, "realize built no intertwiner"
    assert distances == [] and norms == []


def test_unitary_intertwiner_computes_no_identity_distance(monkeypatch, z3_table):
    from repstab import intertwiners
    rng = np.random.default_rng(12)
    rho1, rho2, _ = _phase_conjugated_pair(z3_table, 6, 1e-2, rng, 2.0)
    norms = _count_calls(monkeypatch, intertwiners, "schatten_norm_normalized")
    distances = _count_calls(monkeypatch, intertwiners, "rep_distance")
    rs.unitary_intertwiner(rho1, rho2, 2.0, table=z3_table)
    assert norms == []
    assert distances == []   # the pair is too close for the far warning to measure it
    # the partial-isometry lemma still reports both distances
    res = rs.invariant_intertwiner(rho1, rho2, 2.0, table=z3_table)
    assert res.pair_distance > 0.0 and res.identity_distance > 0.0
    assert norms == ["schatten_norm_normalized"]


def _singular_average_cases(z2_table, s3_table):
    """(table, rho1, conjugating unitary, singular values of the average)."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    # trivial+sign against its swap: the average is zero
    yield z2_table, rs.rep_from_multiplicities(z2_table, [1, 1]), swap, [0, 0]
    # trivial+trivial+sign with the last two lines swapped: the average is diag(1, 0, 0)
    u = np.eye(3)
    u[1:, 1:] = swap
    yield z2_table, rs.rep_from_multiplicities(z2_table, [2, 1]), u, [1, 0, 0]
    # both copies of the 2-dimensional irreducible of S3 conjugated by a
    # trace-zero unitary, whose commutant average vanishes: a 4-dimensional null space
    u = np.eye(6)
    u[2:4, 2:4] = u[4:6, 4:6] = np.diag([1.0, -1.0])
    yield s3_table, rs.rep_from_multiplicities(s3_table, [1, 1, 2]), u, [1, 1, 0, 0, 0, 0]


def test_unitary_intertwiner_on_singular_averages(z2_table, s3_table):
    for table, rho1, u, expected_sv in _singular_average_cases(z2_table, s3_table):
        rho2 = rs.conjugate_rep(rho1, u)
        sv = np.linalg.svd(dense_average(rho1, rho2), compute_uv=False)
        np.testing.assert_allclose(sv, expected_sv, atol=1e-14)
        runs = [rs.unitary_intertwiner(rho1, rho2, table=table) for _ in range(3)]
        for t in runs:
            assert np.abs(t @ t.conj().T - np.eye(rho1.dim)).max() < 1e-12
            assert np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max() < 1e-12
            assert np.array_equal(t, runs[0])


def _forbid(monkeypatch, name):
    """Make `name` raise in scipy.linalg and in every repstab module that binds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    modules = [scipy.linalg, *(m for n, m in list(sys.modules.items())
                               if n == "repstab" or n.startswith("repstab."))]
    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, forbidden)


def test_singular_averages_are_completed_in_the_isotypic_frame(monkeypatch, z2_table, s3_table):
    # the same cases in a Haar-random basis: T^H E is positive semidefinite,
    # so T is a polar factor of E, and no null space or random seed is used
    rng = np.random.default_rng(21)
    cases = [(table, rs.conjugate_rep(rho1, w), w @ u @ w.conj().T)
             for table, rho1, u, _ in _singular_average_cases(z2_table, s3_table)
             for w in [random_unitary(rho1.dim, rng)]]
    for name in ("null_space", "complex_gaussian"):
        _forbid(monkeypatch, name)
    for table, rho1, u in cases:
        rho2 = rs.conjugate_rep(rho1, u)
        t = rs.unitary_intertwiner(rho1, rho2, table=table)
        h = t.conj().T @ dense_average(rho1, rho2)
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh((h + h.conj().T) / 2).min() > -1e-12
        assert np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max() < 1e-12


@pytest.mark.parametrize("c", [5e-7, 2e-6])
def test_average_on_either_side_of_the_rank_cut_takes_its_polar_factor(z2_table, c):
    # trivial+trivial+sign against its rotation in the last two lines: the
    # average has singular values 1, c, c, so its polar factor is unique; c
    # lies on either side of 1e-6, where a rank cut once chose between the
    # SVD of E and the isotypic frame, and the frame gives u @ vh on both
    s = np.sqrt(1.0 - c * c)
    rot = np.eye(3)
    rot[1:, 1:] = [[c, -s], [s, c]]
    rho1 = rs.rep_from_multiplicities(z2_table, [2, 1])
    rho2 = rs.conjugate_rep(rho1, rot)
    u, sv, vh = np.linalg.svd(dense_average(rho1, rho2))
    np.testing.assert_allclose(sv, [1.0, c, c], rtol=1e-6)
    t = rs.unitary_intertwiner(rho1, rho2, table=z2_table)
    assert np.abs(t - u @ vh).max() < 1e-9


def test_unitary_intertwiner_is_polar_factor_of_nonsingular_average(z2_table):
    # both singular values of the average are 0.3: above the rank cut, below
    # the partial-isometry threshold of invariant_intertwiner
    theta = np.arccos(0.3)
    c, s = np.cos(theta), np.sin(theta)
    rho1 = rs.rep_from_multiplicities(z2_table, [1, 1])
    rho2 = rs.conjugate_rep(rho1, np.array([[c, -s], [s, c]]))
    t0 = dense_average(rho1, rho2)
    np.testing.assert_allclose(np.linalg.svd(t0, compute_uv=False), [0.3, 0.3], atol=1e-12)
    t = rs.unitary_intertwiner(rho1, rho2, table=z2_table)
    np.testing.assert_allclose(t, rs.nearest_unitary(t0), atol=1e-12)


@pytest.mark.filterwarnings("ignore:measured distance .* is not below 1/4")
def test_kept_line_at_the_cut_is_invariant(z2_table):
    # the average has singular values 1, 0.3, 0.3, so one line is kept at the
    # default threshold; it is read off the trivial block of the frames, so
    # it is invariant on both sides, with no check to pass
    theta = np.arccos(0.3)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.eye(3)
    rot[1:, 1:] = [[c, -s], [s, c]]
    rho1 = rs.rep_from_multiplicities(z2_table, [2, 1])
    rho2 = rs.conjugate_rep(rho1, rot)
    np.testing.assert_allclose(np.linalg.svd(dense_average(rho1, rho2), compute_uv=False),
                               [1.0, 0.3, 0.3], atol=1e-12)
    res = rs.invariant_intertwiner(rho1, rho2, 2.0, table=z2_table)
    assert res.kept_dim == 1
    assert invariance_error(rho1, res.source_basis) <= 1e-12
    assert invariance_error(rho2, res.target_basis) <= 1e-12


def test_unitary_intertwiner_on_the_trivial_group_is_the_identity(monkeypatch):
    table = rs.irrep_table(rs.cyclic_group(1), seed=0)
    rng = np.random.default_rng(3)
    rho1, rho2 = random_rep(table, 24, rng), random_rep(table, 24, rng)
    # the polar factor of the average, as built for every nontrivial group
    polar = rs.nearest_unitary(dense_average(rho1, rho2))
    assert np.abs(polar - np.eye(24)).max() < 1e-14

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    t = rs.unitary_intertwiner(rho1, rho2, 1.0, table=table)
    assert np.array_equal(t, np.eye(24))


@pytest.mark.filterwarnings("ignore:measured distance .* is not below 1/4")
def test_kept_bases_are_invariant_by_construction(z2_table):
    # a kept subspace spanning the whole space, then a proper one in a
    # random basis: both are invariant to rounding on both sides
    rng = np.random.default_rng(5)
    rho1, rho2, _ = _phase_conjugated_pair(z2_table, 6, 1e-2, rng, 2.0)
    pairs = [(rho1, rho2, 6)]

    # trivial+trivial+sign with the last two lines swapped, in a random basis:
    # the average has singular values 1, 0, 0, so one line is kept
    swap = np.eye(3)
    swap[1:, 1:] = [[0.0, 1.0], [1.0, 0.0]]
    v = random_unitary(3, rng)
    rho1 = rs.conjugate_rep(rs.rep_from_multiplicities(z2_table, [2, 1]), v)
    pairs.append((rho1, rs.conjugate_rep(rho1, v @ swap @ v.conj().T), 1))
    for rho1, rho2, kept in pairs:
        res = rs.invariant_intertwiner(rho1, rho2, 2.0, table=z2_table)
        assert res.kept_dim == kept
        assert invariance_error(rho1, res.source_basis) <= 1e-12
        assert invariance_error(rho2, res.target_basis) <= 1e-12


def _matches_the_thresholded_oracle(rho1, rho2, table):
    """Check invariant_intertwiner against the thresholded SVD of the dense
    average; False, with nothing checked, when a singular value of the
    average lies within 1e-6 of the cut."""
    average = dense_average(rho1, rho2)
    if np.abs(np.linalg.svd(average, compute_uv=False) - DEFAULT_THRESHOLD).min() < 1e-6:
        return False
    t, right, _ = rs.threshold_partial_isometry(average, DEFAULT_THRESHOLD)
    res = rs.invariant_intertwiner(rho1, rho2, 2.0, table=table)
    assert res.kept_dim == right.shape[1]
    assert np.abs(res.operator - t).max() <= 1e-12
    assert invariance_error(rho1, res.source_basis) <= 1e-12
    assert invariance_error(rho2, res.target_basis) <= 1e-12
    return True


@pytest.mark.filterwarnings("ignore:measured distance .* is not below 1/4")
@pytest.mark.parametrize("name", [n for n in group_preset_names() if group_preset(n).order > 1])
def test_frame_polar_factor_matches_the_svd_oracle(name):
    # the frame polar factor against the SVD oracle: the nearest unitary to
    # the group average, for close and farther pairs alike; the partial
    # isometry against the thresholded SVD of the same average, on those
    # pairs and on one pair per dimension whose multiplicities differ
    table = rs.irrep_table(group_preset(name), seed=0)
    rng = np.random.default_rng(14)
    checked = 0
    for dim in (6, 24, 96):
        for eps in (1e-6, 1e-3, 1e-1):
            rho1, rho2, _ = _phase_conjugated_pair(table, dim, eps, rng, 2.0)
            t = rs.unitary_intertwiner(rho1, rho2, 2.0, table=table)
            polar = rs.nearest_unitary(dense_average(rho1, rho2))
            assert np.abs(t - polar).max() <= 1e-13
            assert np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max() < 1e-12
            checked += _matches_the_thresholded_oracle(rho1, rho2, table)
    swapped = np.random.default_rng(15)
    for dim in (6, 24, 96):
        rho1, rho2 = _swapped_summand_pair(table, dim, 1e-2, swapped)
        assert not np.array_equal(rs.multiplicities(rho1, table), rs.multiplicities(rho2, table))
        checked += _matches_the_thresholded_oracle(rho1, rho2, table)
    assert checked >= 10


@pytest.mark.parametrize("build", ["invariant", "unitary"])
def test_intertwiners_refuse_a_group_or_dimension_mismatch(build):
    # Z4 and V4 have equal order, so only the group itself tells them apart
    z4, v4 = group_preset("Z4"), group_preset("V4")
    tables = [rs.irrep_table(g, seed=0) for g in (z4, v4)]
    rho_z4, rho_v4 = (rs.rep_from_multiplicities(t, [1, 1, 1, 1]) for t in tables)
    wider = rs.rep_from_multiplicities(tables[0], [2, 1, 1, 1])

    def intertwine(rho1, rho2, table):
        if build == "invariant":
            return rs.invariant_intertwiner(rho1, rho2, 2.0, table=table)
        return rs.unitary_intertwiner(rho1, rho2, 2.0, table=table)

    for table in tables:
        for rho1, rho2 in ((rho_z4, rho_v4), (rho_v4, rho_z4)):
            with pytest.raises(rs.ValidationError, match="must share a group"):
                intertwine(rho1, rho2, table)
    for rho1, rho2 in ((rho_z4, wider), (wider, rho_z4)):
        with pytest.raises(rs.ValidationError, match="dimension mismatch"):
            intertwine(rho1, rho2, tables[0])


def test_frame_polar_factor_is_refused_when_not_unitary(monkeypatch, s3_table):
    # with no unitarity slack the rounding in T T^H refuses the operator
    from repstab import intertwiners
    rho1, rho2, _ = _phase_conjugated_pair(s3_table, 12, 1e-3, np.random.default_rng(2), 2.0)
    rs.unitary_intertwiner(rho1, rho2, table=s3_table)
    monkeypatch.setattr(intertwiners, "UNITARY_ATOL", 0.0)
    with pytest.raises(rs.NumericalError, match="assembled intertwiner is not unitary"):
        rs.unitary_intertwiner(rho1, rho2, table=s3_table)


@pytest.mark.parametrize("p", [float("nan"), 0.5])
@pytest.mark.parametrize("far", [True, False])
def test_unitary_intertwiner_validates_p(z3_table, p, far):
    # the exponent is checked before any distance is read, so a far pair
    # raises the same error and emits no far warning
    rng = np.random.default_rng(2)
    rho1 = random_rep(z3_table, 4, rng)
    rho2 = rs.conjugate_rep(rho1, random_unitary(4, rng)) if far else rho1
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        with pytest.raises(rs.ValidationError, match="Schatten exponent"):
            rs.unitary_intertwiner(rho1, rho2, p, table=z3_table)
    assert records == []


def _far_warnings(rho1, rho2, p, table):
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        rs.unitary_intertwiner(rho1, rho2, p, table=table)
    return [r for r in records if "not below 1/4" in str(r.message)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_far_warning_fires_exactly_from_a_quarter(z3_table, p):
    rng = np.random.default_rng(int(10 * p))
    fired = set()
    for eps in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.6):
        rho1, rho2, delta = _phase_conjugated_pair(z3_table, 8, eps, rng, p)
        far = _far_warnings(rho1, rho2, p, z3_table)
        assert len(far) == (delta >= 0.25 * (1 - BOUND_RTOL))
        if far:
            assert str(far[0].message) == (f"measured distance {delta:.3e} is not below "
                                           "1/4; the intertwiner may be far from the identity")
            assert far[0].filename == __file__
        fired.add(bool(far))
    assert fired == {True, False}


def test_far_warning_at_p4_reads_the_exact_distance(monkeypatch, z3_table):
    # the unnormalized Frobenius bound reaches 1/4, the exact distance does not
    rng = np.random.default_rng(4)
    rho1, rho2, delta = _phase_conjugated_pair(z3_table, 8, 0.15, rng, 4.0)
    bound = max(np.linalg.norm(a - b) for a, b in zip(rho1.matrices, rho2.matrices))
    assert bound >= 0.25 > delta
    from repstab import schatten
    distances = _count_calls(monkeypatch, schatten, "rep_distance")
    assert _far_warnings(rho1, rho2, 4.0, z3_table) == []
    assert distances == ["rep_distance"]


def test_unitary_intertwiner_without_p_measures_and_warns_nothing(monkeypatch, s3_table):
    # a pair far enough apart that the far warning fires whenever p is given
    from repstab import intertwiners, schatten
    rng = np.random.default_rng(8)
    rho1 = random_rep(s3_table, 6, rng)
    rho2 = rs.conjugate_rep(rho1, random_unitary(6, rng))
    assert len(_far_warnings(rho1, rho2, 1.0, s3_table)) == 1
    counted = [_count_calls(monkeypatch, module, "rep_distance")
               for module in (schatten, intertwiners)]
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        t = rs.unitary_intertwiner(rho1, rho2, table=s3_table)
    assert records == [] and counted == [[], []]
    assert np.abs(np.matmul(rho2.matrices, t) - np.matmul(t, rho1.matrices)).max() < 1e-8


def test_far_warning_at_a_rounded_quarter(z2_table):
    # trivial+sign against its rotation by theta: the difference at the sign
    # element has two equal singular values, so at p = 1 the Frobenius bound
    # equals the exact distance 2 sin(theta); near 1/4 either may round
    # above the other, and the warning still follows the exact distance,
    # from 1/4 less the relative slack BOUND_RTOL, so every theta here warns
    rho1 = rs.rep_from_multiplicities(z2_table, [1, 1])
    for k in range(-3, 4):
        theta = 0.12532783116806542 + 4e-17 * k
        c, s = np.cos(theta), np.sin(theta)
        rho2 = rs.conjugate_rep(rho1, np.array([[c, -s], [s, c]]))
        delta = rs.rep_distance(rho1, rho2, 1.0)
        assert len(_far_warnings(rho1, rho2, 1.0, z2_table)) == (delta >= 0.25 * (1 - BOUND_RTOL))


@pytest.mark.parametrize("name", ["S3", "A4", "S4"])
def test_isotypic_polar_takes_a_real_frame_on_either_side(name):
    # rep_from_multiplicities carries the real identity frame, a conjugation
    # a complex one; the polar factor of the average, assembled in a complex
    # array, is the dense oracle's either way round, and I between two
    # identity frames
    table = rs.irrep_table(group_preset(name), seed=0)
    mults = np.ones(len(table), dtype=int)
    mults[0] = 2
    canonical = rs.rep_from_multiplicities(table, mults)
    rng = np.random.default_rng(len(table))
    h = random_hermitian(canonical.dim, rng)
    near = rs.conjugate_rep(canonical, scipy.linalg.expm(0.1j * h / np.abs(h).max()))
    real = irreps_mod._isotypic_frame(canonical, table)
    assert not np.iscomplexobj(real.basis)
    for rho1, rho2 in ((canonical, near), (near, canonical), (canonical, canonical)):
        frame1, frame2 = (irreps_mod._isotypic_frame(r, table) for r in (rho1, rho2))
        letter = _isotypic_polar(frame1, frame2, table)
        u, _, vh = np.linalg.svd(dense_average(rho1, rho2))
        assert np.abs(letter - u @ vh).max() <= 1e-12


def test_an_operator_with_a_nan_is_refused(monkeypatch, z3_table):
    # a comparison with NaN is False, so each check asks that the deviation
    # be within its tolerance: the unitary intertwiner and a stable letter
    # refuse a NaN operator instead of returning it
    from repstab import intertwiners
    assembled = intertwiners._isotypic_polar

    def with_nan(*args):
        letter = assembled(*args)
        letter[0, 0] = np.nan
        return letter

    rho1, rho2, _ = _phase_conjugated_pair(z3_table, 6, 1e-2, np.random.default_rng(8), 2.0)
    ctx = rs.CorrectionContext.build(rs.graph_preset("hnn_Z4_over_Z2"), p=2.0)
    monkeypatch.setattr(intertwiners, "_isotypic_polar", with_nan)
    with pytest.raises(NumericalError, match=r"not unitary \(deviation nan\)"):
        rs.unitary_intertwiner(rho1, rho2, table=z3_table)
    with pytest.raises(NumericalError, match=r"not unitary \(deviation nan\)"):
        rs.realize(rs.uniform_lambda(ctx, 12), ctx)
