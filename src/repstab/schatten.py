"""Schatten-norm linear algebra on complex matrices.

Norms are computed for whole stacks of matrices at once. At p = 2 the norm
is the Frobenius norm and at p = 4 it is the square root of the Frobenius
norm of A^H A (since ||A||_4^4 = tr((A^H A)^2)); both are exact and need no
decomposition. Every other p takes one singular value decomposition per
stack. One scan of a stack finds the largest |entry| of each member: it
rejects a stack with NaN or Inf, marks the exactly zero members, which read
0 and take no kernel (so a stack of zeros takes no decomposition and no
product), and scales the p = 2 and p = 4 paths. The Schatten exponent p is
a runtime parameter, any real p >= 1.

A polar factor comes from a singular value decomposition. A distance that
only decides whether a level is reached is bounded first by a Frobenius
norm, and measured exactly only when the bound reaches the level.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

RANK_RTOL = 1e-12   # smallest singular value, relative to max(largest, 1), of a full-rank factor
BOUND_RTOL = 1e-12  # slack that keeps rounding from deciding a comparison with a bound or level


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains NaN or Inf")
    return m


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}")
    return _finite(m)


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (p >= 1.0 and np.isfinite(p)):
        raise ValidationError(f"Schatten exponent must satisfy 1 <= p < inf, got {p}")
    return p


def _svd(stack: np.ndarray, compute_uv: bool = False):
    """Singular values of each matrix of a stack, sorted non-increasing;
    with `compute_uv`, the factorization (u, s, vh)."""
    try:
        return np.linalg.svd(stack, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on an array of shape {stack.shape} "
            f"(max |entry| {np.abs(stack).max():.3e})") from exc


def singular_values(a) -> np.ndarray:
    """Singular values, sorted non-increasing."""
    return _svd(_as_matrix(a))


def _norms(stack: np.ndarray, p: float) -> np.ndarray:
    """Unnormalized p-Schatten norm of each matrix of a complex (n, r, c) stack.

    One scan finds each member's largest |entry|: a NaN or Inf raises
    ValidationError, an exactly zero matrix reads 0.0 and takes no kernel
    (only the nonzero matrices are decomposed or multiplied), and the p = 2
    and p = 4 paths scale by it."""
    if stack.size == 0:
        return np.zeros(len(stack))
    top = np.abs(stack).max(axis=(1, 2))
    if not np.isfinite(top).all():
        raise ValidationError("matrix contains NaN or Inf")
    nonzero = top > 0
    if nonzero.all():
        return _nonzero_norms(stack, p, top)
    norms = np.zeros(len(stack))
    if nonzero.any():
        norms[nonzero] = _nonzero_norms(stack[nonzero], p, top[nonzero])
    return norms


def _nonzero_norms(stack: np.ndarray, p: float, top: np.ndarray) -> np.ndarray:
    """`_norms` of a stack with no zero matrix, given each member's largest
    |entry| `top`."""
    if p not in (2.0, 4.0):
        sv = _svd(stack)
        largest = sv[:, 0]   # positive for a nonzero matrix
        # factor out the largest value so large p does not overflow
        return largest * np.sum((sv / largest[:, None]) ** p, axis=1) ** (1.0 / p)
    # divide by the largest |entry|, positive for a nonzero matrix, so
    # squaring neither overflows nor underflows; the real and imaginary
    # parts are divided as floats, since the reciprocal of a subnormal top
    # overflows and complex division takes one
    scaled = (np.ascontiguousarray(stack).view(float) / top[:, None, None]).view(complex)
    if p == 4.0:
        adj = scaled.conj().transpose(0, 2, 1)
        scaled = adj @ scaled if stack.shape[2] <= stack.shape[1] else scaled @ adj
    parts = scaled.reshape(len(scaled), -1).view(float)   # real and imaginary parts
    # one dot product per member, whose summation order does not depend on
    # how many members the stack has
    frob = np.sqrt(np.matmul(parts[:, None, :], parts[:, :, None])[:, 0, 0])
    return top * (frob if p == 2.0 else np.sqrt(frob))


def schatten_norm(a, p: float) -> float:
    """Unnormalized p-Schatten norm: lp norm of the singular values."""
    p = _check_exponent(p)
    return float(_norms(_as_matrix(a)[None], p)[0])


def _normalized_norms(mats, p: float) -> np.ndarray:
    """Normalized p-Schatten norm of each square matrix of a stack.

    The normalized norm is the p-power mean of the singular values; empty
    matrices have none.
    """
    mats = _matrices_of(mats)
    n, rows, cols = mats.shape
    if rows != cols:
        raise ValidationError(f"normalized norm requires a square matrix, got {(rows, cols)}")
    if rows == 0:
        raise ValidationError("normalized norm requires a nonempty matrix")
    p = _check_exponent(p)
    if n == 0:
        return np.zeros(0)
    return _norms(mats, p) / rows ** (1.0 / p)


def max_normalized_norm(mats, p: float) -> float:
    """Largest normalized p-Schatten norm over a stack of square matrices.

    An empty stack gives 0.0; empty matrices have no normalized norm.
    """
    return float(_normalized_norms(mats, p).max(initial=0.0))


def schatten_norm_normalized(a, p: float) -> float:
    """Normalized p-Schatten norm: the p-power mean of the singular values."""
    return max_normalized_norm(_as_matrix(a)[None], p)


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
    return max_normalized_norm(m1 - m2, p)


def _distance_or_bound(rho1, rho2, p: float, level: float) -> float:
    """rep_distance(rho1, rho2, p), or a bound on it when that bound is below
    level * (1 - BOUND_RTOL): the normalized Frobenius norm for p <= 2, the
    unnormalized one above, and at p = 2 the distance itself."""
    bound = max_normalized_norm(rho1.matrices - rho2.matrices, 2.0)
    if p > 2.0:
        bound *= np.sqrt(rho1.dim)
    if p == 2.0 or bound < level * (1.0 - BOUND_RTOL):
        return bound
    return rep_distance(rho1, rho2, p)


def nearest_unitary(a) -> np.ndarray:
    """Unitary polar factor, the Frobenius-closest unitary to `a`.

    Requires full rank; a singular factor would leave the closest unitary
    underdetermined.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError("polar factor requires a square matrix")
    u, sv, vh = _svd(m, compute_uv=True)
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
    u, sv, vh = _svd(m, compute_uv=True)
    kept = sv >= threshold
    right = vh[kept].conj().T
    left = u[:, kept]
    t = left @ right.conj().T
    return t, right, left
