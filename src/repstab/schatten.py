"""Schatten-norm linear algebra on complex matrices.

Everything is computed through full singular value decompositions; the
matrices in this package are small (a few hundred rows at most) and
robustness matters more than speed. The Schatten exponent p is a runtime
parameter, any real p >= 1.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

RANK_RTOL = 1e-12   # smallest singular value, relative to max(largest, 1), of a full-rank factor


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError("matrix contains NaN or Inf")
    return m


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (p >= 1.0 and np.isfinite(p)):
        raise ValidationError(f"Schatten exponent must satisfy 1 <= p < inf, got {p}")
    return p


def singular_values(a) -> np.ndarray:
    """Singular values, sorted non-increasing."""
    m = _as_matrix(a)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on a {m.shape} matrix "
            f"(max |entry| {np.abs(m).max():.3e})") from exc


def schatten_norm(a, p: float) -> float:
    """Unnormalized p-Schatten norm: lp norm of the singular values."""
    p = _check_exponent(p)
    sv = singular_values(a)
    if sv.size == 0:
        return 0.0
    top = sv[0]
    if top == 0.0:
        return 0.0
    # factor out the largest value so large p does not overflow
    return float(top * np.sum((sv / top) ** p) ** (1.0 / p))


def schatten_norm_normalized(a, p: float) -> float:
    """Normalized p-Schatten norm: the p-power mean of the singular values."""
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"normalized norm requires a square matrix, got {m.shape}")
    p = _check_exponent(p)
    return schatten_norm(m, p) / m.shape[0] ** (1.0 / p)


def _matrices_of(rho) -> np.ndarray:
    mats = getattr(rho, "matrices", rho)
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3:
        raise ValidationError("expected a stack of matrices or an object with .matrices")
    return mats


def rep_distance(rho1, rho2, p: float) -> float:
    """Max normalized p-Schatten distance over all group elements.

    `rho1` and `rho2` are stacks of unitaries (or objects exposing
    `.matrices`), compared index by index.
    """
    m1, m2 = _matrices_of(rho1), _matrices_of(rho2)
    if m1.shape != m2.shape:
        raise ValidationError(f"dimension mismatch: {m1.shape} vs {m2.shape}")
    best = 0.0
    for a, b in zip(m1, m2):
        best = max(best, schatten_norm_normalized(a - b, p))
    return best


def nearest_unitary(a) -> np.ndarray:
    """Unitary polar factor, the Frobenius-closest unitary to `a`.

    Requires full rank; a singular factor would leave the closest unitary
    underdetermined.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError("polar factor requires a square matrix")
    u, sv, vh = np.linalg.svd(m)
    if sv.size == 0 or sv[-1] <= RANK_RTOL * max(sv[0], 1.0):
        raise NumericalError(
            f"matrix is rank deficient (smallest singular value {sv[-1] if sv.size else 0.0:.3e}); "
            "polar factor is not unique")
    return u @ vh


def threshold_partial_isometry(a, threshold: float):
    """Partial isometry from the singular triplets at or above a threshold.

    Returns (T, right_basis, left_basis): T maps the span of `right_basis`
    isometrically onto the span of `left_basis` and kills its orthogonal
    complement. An empty kept set yields the zero map and empty bases.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError("thresholding requires a square matrix")
    if not threshold > 0:
        raise ValidationError("threshold must be positive")
    u, sv, vh = np.linalg.svd(m)
    kept = sv >= threshold
    right = vh[kept].conj().T
    left = u[:, kept]
    t = left @ right.conj().T
    return t, right, left
