"""Intertwining operators between close representations of a finite group.

Two exact unitary representations at small normalized p-Schatten distance
delta admit a partial-isometry intertwiner between invariant subspaces of
codimension at most (2*delta)^p times the dimension, at distance 3*delta
from the identity; when the representations are isomorphic the intertwiner
extends to a unitary within 5*delta of the identity. The constructions here
are fully explicit: a group average provides an exact intertwiner, singular
value thresholding extracts the near-isometric part, and the unitary
intertwiner is the polar factor of the group average, completed on its null
space by the polar factor of a random seed's group average. Over the
trivial group every unitary intertwines and the unitary intertwiner is the
exact identity, built without an average or a decomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsomorphyError, NumericalError, ValidationError
from .irreps import (INVARIANCE_ATOL, UNITARY_ATOL, IrrepTable, UnitaryRep, complement,
                     compress, direct_sum, multiplicities)
from .rng import as_generator, complex_gaussian
from .schatten import (nearest_unitary, rep_distance, schatten_norm_normalized,
                       singular_values, threshold_partial_isometry)

DEFAULT_THRESHOLD = 0.5   # singular value cutoff for the kept subspaces of invariant_intertwiner
POLAR_RANK_ATOL = 1e-6    # singular value of the group average below which it counts as zero
INTERTWINE_ATOL = 1e-8    # max |rho2(x) T - T rho1(x)| of an assembled unitary intertwiner
FAR_DISTANCE = 0.25       # input distance from which invariant_intertwiner warns


@dataclass(frozen=True, eq=False)
class IntertwinerResult:
    """Partial-isometry intertwiner with its matched invariant subspaces."""

    operator: np.ndarray       # partial isometry T with rho2(x) T = T rho1(x)
    source_basis: np.ndarray   # orthonormal columns spanning the rho1-invariant subspace
    target_basis: np.ndarray   # orthonormal columns spanning the rho2-invariant subspace
    pair_distance: float       # measured max distance between the representations
    identity_distance: float   # measured ||T - I||'_p

    @property
    def kept_dim(self) -> int:
        return self.source_basis.shape[1]


def averaged_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep) -> np.ndarray:
    """Group average of rho2(g) rho1(g)^{-1}; intertwines rho1 to rho2 exactly.

    The intertwining identity rho2(x) T = T rho1(x) holds algebraically for
    any pair of representations, regardless of how far apart they are.
    """
    if rho1.group is not rho2.group:
        raise ValidationError("representations must share a group")
    if rho1.dim != rho2.dim:
        raise ValidationError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    prods = rho2.matrices @ rho1.matrices.conj().transpose(0, 2, 1)
    return prods.sum(axis=0) / rho1.group.order


def _warn_far(delta: float, delta_hint: float | None, stacklevel: int):
    """Distance warnings; `stacklevel` counts from the caller, as in warnings.warn."""
    if delta_hint is not None and delta > delta_hint:
        warnings.warn(f"measured distance {delta:.3e} exceeds the supplied hint {delta_hint:.3e}",
                      stacklevel=stacklevel + 1)
    if delta >= FAR_DISTANCE:
        warnings.warn(f"measured distance {delta:.3e} is not below 1/4; "
                      "the kept subspaces may be small", stacklevel=stacklevel + 1)


def _kept_isometry(rho1: UnitaryRep, rho2: UnitaryRep, threshold: float):
    """Thresholded group average (T, right, left), with invariance verified.

    A side whose kept basis is empty or spans the whole space is invariant
    by construction (its projector is 0 or I to rounding), so only proper
    kept subspaces are checked.
    """
    t0 = averaged_intertwiner(rho1, rho2)
    t, right, left = threshold_partial_isometry(t0, threshold)
    for rep, basis, side in ((rho1, right, "source"), (rho2, left, "target")):
        if basis.shape[1] in (0, rep.dim):
            continue
        proj = basis @ basis.conj().T
        err = np.abs(np.matmul(rep.matrices, proj) - np.matmul(proj, rep.matrices)).max()
        if err > INVARIANCE_ATOL:
            sv = singular_values(t0)
            kept = basis.shape[1]
            dropped = f"{sv[kept]:.6g}" if kept < sv.size else "none"
            raise NumericalError(
                f"{side} subspace not invariant (deviation {err:.3e}); smallest kept "
                f"singular value {sv[kept - 1]:.6g}, largest dropped {dropped}")
    return t, right, left


def invariant_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float,
                          delta_hint: float | None = None,
                          threshold: float = DEFAULT_THRESHOLD) -> IntertwinerResult:
    """Partial isometry between invariant subspaces of two close representations.

    Thresholds the averaged intertwiner at `threshold`; the kept singular
    subspaces are spectral subspaces of exact intertwiners and therefore
    invariant. Invariance is verified numerically and a failure reports the
    singular values straddling the threshold.
    """
    delta = rep_distance(rho1, rho2, p)
    _warn_far(delta, delta_hint, stacklevel=2)
    t, right, left = _kept_isometry(rho1, rho2, threshold)
    dev = schatten_norm_normalized(t - np.eye(rho1.dim), p)
    return IntertwinerResult(operator=t, source_basis=right, target_basis=left,
                             pair_distance=delta, identity_distance=dev)


def unitary_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float,
                        table: IrrepTable, rng=None,
                        warn_far: bool = True) -> np.ndarray:
    """Unitary T with rho2(x) T = T rho1(x), close to I for close inputs.

    Requires isomorphic inputs (verified through their multiplicity
    vectors). T is the polar factor of the group average E of rho2(g)
    rho1(g)^{-1}: at p = 2 the closest unitary intertwiner to the identity,
    and within 3x of the closest at every p. When E is singular (singular
    values below POLAR_RANK_ATOL), the kernels of E and E^*, which carry
    isomorphic subrepresentations, are matched by the polar factor of the
    group average of one complex Gaussian seed drawn from `rng`; `rng` is
    untouched otherwise. On the trivial group T is the exact identity, with
    no average and no SVD. The result conjugates rho1 onto
    rho2 exactly and is verified to INTERTWINE_ATOL.
    """
    rng = as_generator(rng)
    m1 = multiplicities(rho1, table)
    m2 = multiplicities(rho2, table)
    if not np.array_equal(m1, m2):
        raise IsomorphyError(
            f"representations are not isomorphic: multiplicities {m1.tolist()} vs {m2.tolist()}",
            left=m1, right=m2)

    dim = rho1.dim
    if rho1.group.order == 1:
        # nothing to intertwine: I is the exact polar factor of E = I
        t_full = np.eye(dim, dtype=complex)
    else:
        if warn_far:
            _warn_far(rep_distance(rho1, rho2, p), None, stacklevel=1)
        t_full, right, left = _kept_isometry(rho1, rho2, POLAR_RANK_ATOL)
        k = dim - right.shape[1]
        if k:
            comp1, comp2 = complement(right, dim), complement(left, dim)
            rest1, rest2 = compress(rho1.matrices, comp1), compress(rho2.matrices, comp2)
            x = complex_gaussian(k, rng)
            seed_avg = (rest2 @ x @ rest1.conj().transpose(0, 2, 1)).sum(axis=0) / rho1.group.order
            t_full += comp2 @ nearest_unitary(seed_avg) @ comp1.conj().T

    uerr = np.abs(t_full @ t_full.conj().T - np.eye(dim)).max()
    if uerr > UNITARY_ATOL:
        raise NumericalError(f"assembled intertwiner is not unitary (deviation {uerr:.3e})")
    ierr = np.abs(np.matmul(rho2.matrices, t_full) - np.matmul(t_full, rho1.matrices)).max()
    if ierr > INTERTWINE_ATOL:
        raise NumericalError(f"assembled operator fails to intertwine (deviation {ierr:.3e})")
    return t_full


def direct_sum_padding_distance(rho: UnitaryRep, sigma1: UnitaryRep,
                                sigma2: UnitaryRep, p: float) -> tuple[float, float]:
    """Distance between rho+sigma1 and rho+sigma2, with its a priori bound.

    The difference of the two sums has rank at most dim(sigma), with singular
    values at most 2, so the distance is at most 2*delta where
    delta = (dim(sigma) / total dim)^(1/p). Returns (measured, bound).
    """
    if sigma1.dim != sigma2.dim:
        raise ValidationError("padding summands must have equal dimension")
    measured = rep_distance(direct_sum(rho, sigma1), direct_sum(rho, sigma2), p)
    delta = (sigma1.dim / (rho.dim + sigma1.dim)) ** (1.0 / p)
    return measured, 2.0 * delta
