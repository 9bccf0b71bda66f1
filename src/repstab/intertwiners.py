"""Intertwining operators between close representations of a finite group.

Two exact unitary representations at small normalized p-Schatten distance
delta admit a partial-isometry intertwiner between invariant subspaces of
codimension at most (2*delta)^p times the dimension, at distance 3*delta
from the identity; when the representations are isomorphic the intertwiner
extends to a unitary within 5*delta of the identity. The constructions here
are fully explicit: a group average provides an exact intertwiner, singular
value thresholding extracts the near-isometric part, and the unitary
intertwiner is the polar factor of the group average, read off the
isotypic frames that both representations carry, at any rank of the
average. The stable letters of `stabilize` are built by the same routine:
the polar factor of the twisted average of rho2(g) s rho1(g)^{-1} for a
letter s, of which the unitary intertwiner is the case s = I. Nothing here
draws a random number. Over the trivial group every unitary intertwines
and the unitary intertwiner is the exact identity, built without an SVD.
The unitary intertwiner warns about far inputs only when it is given a
Schatten exponent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsomorphyError, NumericalError, ValidationError
from .irreps import (INVARIANCE_ATOL, UNITARY_ATOL, IrrepTable, UnitaryRep, _column_blocks,
                     _isotypic_frame, direct_sum)
from .schatten import (_check_exponent, _distance_or_bound, _svd, rep_distance,
                       schatten_norm_normalized, singular_values, threshold_partial_isometry)

DEFAULT_THRESHOLD = 0.5   # singular value cutoff for the kept subspaces of invariant_intertwiner
INTERTWINE_ATOL = 1e-8    # max |rho2(x) T - T rho1(x)| of an assembled unitary intertwiner
FAR_DISTANCE = 0.25       # input distance from which the intertwiners warn


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


def _warn_far(delta: float, risk: str, stacklevel: int):
    """Far-distance warning naming the caller's `risk`; `stacklevel` counts
    from the caller, as in warnings.warn."""
    if delta >= FAR_DISTANCE:
        warnings.warn(f"measured distance {delta:.3e} is not below 1/4; {risk}",
                      stacklevel=stacklevel + 1)


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
        gens = rep.matrices[rep.group.generators]
        err = np.abs(gens @ proj - proj @ gens).max(initial=0.0)
        if err > INVARIANCE_ATOL:
            sv = singular_values(t0)
            kept = basis.shape[1]
            dropped = f"{sv[kept]:.6g}" if kept < sv.size else "none"
            raise NumericalError(
                f"{side} subspace not invariant (deviation {err:.3e}); smallest kept "
                f"singular value {sv[kept - 1]:.6g}, largest dropped {dropped}")
    return t, right, left


def invariant_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float) -> IntertwinerResult:
    """Partial isometry between invariant subspaces of two close representations.

    Thresholds the averaged intertwiner at DEFAULT_THRESHOLD; the kept singular
    subspaces are spectral subspaces of exact intertwiners and therefore
    invariant. Invariance is verified numerically and a failure reports the
    singular values straddling the threshold.
    """
    delta = rep_distance(rho1, rho2, p)
    _warn_far(delta, "the kept subspaces may be small", stacklevel=2)
    t, right, left = _kept_isometry(rho1, rho2, DEFAULT_THRESHOLD)
    dev = schatten_norm_normalized(t - np.eye(rho1.dim), p)
    return IntertwinerResult(operator=t, source_basis=right, target_basis=left,
                             pair_distance=delta, identity_distance=dev)


def _isotypic_polar(frame1, frame2, table: IrrepTable, s=None) -> np.ndarray:
    """Polar factor L of F = mean_h rho2(h) s rho1(h)^H, with s = I when
    None, for two isomorphic representations with these isotypic frames,
    at any rank of F.

    In the copy-major bases B1_k, B2_k of the frames both act by
    I kron pi_k, so Schur's lemma (Serre, Linear Representations of Finite
    Groups, 2.7) gives B2_k^H F B1_k = M_k kron I, with the m_k x m_k block
    M_k = tr_alpha(B2_k^H s B1_k) / d_k. From the SVD M_k = U_k S_k V_k^H,
    L = sum_k B2_k (U_k V_k^H kron I) B1_k^H is unitary, intertwines, and
    makes L^H F positive semidefinite; d_k M_k has the same U_k and V_k.
    """
    widths = frame1.mults * table.dims
    moved = frame1.basis if s is None else s @ frame1.basis
    turned = []
    for b1, b2, m, d in zip(_column_blocks(moved, widths),
                            _column_blocks(frame2.basis, widths), frame1.mults, table.dims):
        if m:
            overlap = (b2.conj().T @ b1).reshape(m, d, m, d)
            u, _, vh = _svd(overlap.trace(axis1=1, axis2=3), compute_uv=True)
            # U V^H kron I as one broadcast product
            turned.append(b2 @ ((u @ vh)[:, None, :, None] * np.eye(d)[:, None]).reshape(m * d, -1))
    return np.hstack(turned) @ frame1.basis.conj().T


def _polar_letter(rho1: UnitaryRep, rho2: UnitaryRep, table: IrrepTable, s=None,
                  far=None) -> np.ndarray:
    """The polar factor L of F = mean_h rho2(h) s rho1(h)^H (`_isotypic_polar`),
    verified unitary to UNITARY_ATOL and to satisfy rho2(x) L = L rho1(x) on
    the group's generators to INTERTWINE_ATOL. With s = I (None) over the
    trivial group L is the exact identity. Given `far`, a callable returning
    the inputs' distance, a distance of FAR_DISTANCE or more warns, over a
    nontrivial group and only once the inputs are known to be isomorphic."""
    frame1, frame2 = (_isotypic_frame(rho, table) for rho in (rho1, rho2))
    m1, m2 = frame1.mults, frame2.mults
    if not np.array_equal(m1, m2):
        raise IsomorphyError(
            f"representations are not isomorphic: multiplicities {m1.tolist()} vs {m2.tolist()}",
            left=m1, right=m2)

    dim = rho1.dim
    if rho1.group.order == 1 and s is None:
        # nothing to intertwine: I is the exact polar factor of F = I
        return np.eye(dim, dtype=complex)
    if far is not None and rho1.group.order > 1:
        _warn_far(far(), "the intertwiner may be far from the identity", stacklevel=3)
    letter = _isotypic_polar(frame1, frame2, table, s)
    uerr = np.abs(letter @ letter.conj().T - np.eye(dim)).max()
    if uerr > UNITARY_ATOL:
        raise NumericalError(f"assembled intertwiner is not unitary (deviation {uerr:.3e})")
    gens = rho1.group.generators
    ierr = np.abs(rho2.matrices[gens] @ letter - letter @ rho1.matrices[gens]).max(initial=0.0)
    if ierr > INTERTWINE_ATOL:
        raise NumericalError(f"assembled operator fails to intertwine (deviation {ierr:.3e})")
    return letter


def unitary_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float | None = None, *,
                        table: IrrepTable) -> np.ndarray:
    """Unitary T with rho2(x) T = T rho1(x), close to I for close inputs.

    Requires isomorphic inputs (verified through the multiplicities of their
    isotypic frames, which representations built by `repstab.irreps` carry).
    T is the polar factor of the group average E of rho2(g) rho1(g)^{-1},
    read off the frames at any rank of E: at p = 2 the closest unitary
    intertwiner to the identity, and within 3x of the closest at every p.
    It is the s = I case of the stable letter that `stabilize` fits, built
    and verified by the same routine (`_polar_letter`): on the trivial group
    T is the exact identity; elsewhere T is verified unitary to
    UNITARY_ATOL and intertwining on the group's generators to
    INTERTWINE_ATOL. Given a Schatten exponent `p`, a pair at distance
    FAR_DISTANCE or more warns; without it no distance is measured.
    """
    p = None if p is None else _check_exponent(p)
    far = None if p is None else (lambda: _distance_or_bound(rho1, rho2, p, FAR_DISTANCE))
    return _polar_letter(rho1, rho2, table, far=far)


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
