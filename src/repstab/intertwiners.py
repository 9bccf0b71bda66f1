"""Intertwining operators between close representations of a finite group.

Two exact unitary representations at small normalized p-Schatten distance
delta admit a partial-isometry intertwiner between invariant subspaces of
codimension at most (2*delta)^p times the dimension, at distance 3*delta
from the identity; when the representations are isomorphic the intertwiner
extends to a unitary within 5*delta of the identity. Both are read off
the isotypic frames that the representations carry, where Schur's lemma
makes the group average E of rho2(g) rho1(g)^{-1} one small block per
irreducible (`_isotypic_blocks`), and E is never formed: thresholding the
blocks' singular values gives the partial isometry, on subspaces invariant
by construction, and their polar factors the unitary intertwiner, at any
rank of E. The stable letters of `stabilize` are the polar factors of the
twisted average of rho2(g) s rho1(g)^{-1} for a letter s, of which the
unitary intertwiner is the case s = I. Nothing here draws a random
number. Over the trivial group every unitary intertwines and the unitary
intertwiner is the exact identity, built without an SVD. The unitary
intertwiner warns about far inputs only when it is given a Schatten
exponent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IsomorphyError, NumericalError, ValidationError
from .irreps import (INTERTWINE_ATOL, UNITARY_ATOL, IrrepTable, UnitaryRep, _isotypic_frame,
                     direct_sum)
from .schatten import (BOUND_RTOL, _check_exponent, _distance_or_bound, _svd, rep_distance,
                       schatten_norm_normalized)

DEFAULT_THRESHOLD = 0.5   # singular value cutoff for the kept subspaces of invariant_intertwiner
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


def _warn_far(delta: float, risk: str, stacklevel: int):
    """Far-distance warning naming the caller's `risk`, from FAR_DISTANCE
    less the relative slack BOUND_RTOL; `stacklevel` counts from the
    caller, as in warnings.warn."""
    if delta >= FAR_DISTANCE * (1.0 - BOUND_RTOL):
        warnings.warn(f"measured distance {delta:.3e} is not below 1/4; {risk}",
                      stacklevel=stacklevel + 1)


def _frames(rho1: UnitaryRep, rho2: UnitaryRep, table: IrrepTable):
    """The frames in `table` of two representations of one group and dimension."""
    if rho1.group is not rho2.group:
        raise ValidationError("representations must share a group")
    if rho1.dim != rho2.dim:
        raise ValidationError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    return _isotypic_frame(rho1, table), _isotypic_frame(rho2, table)


def _isotypic_blocks(frame1, frame2, table: IrrepTable, s=None):
    """(B1_k, B2_k, d_k M_k, d_k) per irreducible k present on both sides,
    for the average F = mean_h rho2(h) s rho1(h)^H, with s = I when None.

    B1_k and B2_k are the copy-major bases of the frames, m1_k d_k and
    m2_k d_k wide (with s given, B1_k is the block of s B1). Both sides act
    on them by I kron pi_k, so Schur's lemma (Serre, Linear Representations
    of Finite Groups, 2.7) gives B2_k^H F B1_k = M_k kron I, with the
    m2_k x m1_k block M_k = tr_alpha(B2_k^H s B1_k) / d_k. d_k M_k has the
    singular vectors of M_k; for d_k = 1 it is B2_k^H s B1_k itself.
    """
    moved = frame1.basis if s is None else s @ frame1.basis
    off1 = off2 = 0
    for m1, m2, d in zip(frame1.mults.tolist(), frame2.mults.tolist(), table.dims.tolist()):
        b1, b2 = moved[:, off1:off1 + m1 * d], frame2.basis[:, off2:off2 + m2 * d]
        off1, off2 = off1 + m1 * d, off2 + m2 * d
        if m1 and m2:
            block = b2.conj().T @ b1
            if d > 1:
                block = block.reshape(m2, d, m1, d).trace(axis1=1, axis2=3)
            yield b1, b2, block, d


def invariant_intertwiner(rho1: UnitaryRep, rho2: UnitaryRep, p: float, *,
                          table: IrrepTable) -> IntertwinerResult:
    """Partial isometry between invariant subspaces of two close representations.

    The group average E = sum_k B2_k (M_k kron I) B1_k^H (`_isotypic_blocks`)
    has the singular values of the blocks M_k, each d_k times, so E is
    thresholded at DEFAULT_THRESHOLD block by block: the columns of the SVD
    M_k = U S V^H with S >= DEFAULT_THRESHOLD give T = sum_k B2_k (U V^H
    kron I) B1_k^H between the bases B1_k (V kron I) and B2_k (U kron I),
    which are invariant by construction. The multiplicities may differ.
    """
    frame1, frame2 = _frames(rho1, rho2, table)
    delta = rep_distance(rho1, rho2, p)
    _warn_far(delta, "the kept subspaces may be small", stacklevel=2)
    empty = np.empty((rho1.dim, 0), dtype=complex)
    right, left = [empty], [empty]
    for b1, b2, traced, d in _isotypic_blocks(frame1, frame2, table):
        u, sv, vh = _svd(traced, compute_uv=True)
        kept = np.count_nonzero(sv >= d * DEFAULT_THRESHOLD)
        right.append(b1 @ np.kron(vh[:kept].conj().T, np.eye(d)))
        left.append(b2 @ np.kron(u[:, :kept], np.eye(d)))
    right, left = np.hstack(right), np.hstack(left)
    t = left @ right.conj().T
    dev = schatten_norm_normalized(t - np.eye(rho1.dim), p)
    return IntertwinerResult(operator=t, source_basis=right, target_basis=left,
                             pair_distance=delta, identity_distance=dev)


def _isotypic_polar(frame1, frame2, table: IrrepTable, s=None) -> np.ndarray:
    """Polar factor L of F = mean_h rho2(h) s rho1(h)^H, with s = I when
    None, for two isomorphic representations with these isotypic frames,
    at any rank of F: from the SVD d_k M_k = U_k S_k V_k^H of each block of
    `_isotypic_blocks`, L = sum_k B2_k (U_k V_k^H kron I) B1_k^H is unitary,
    intertwines, and makes L^H F positive semidefinite. The blocks
    B2_k (U_k V_k^H kron I) are written side by side into one complex array
    (a frame may be real), which takes one product with B1^H.
    """
    turned = np.empty(frame2.basis.shape, dtype=complex)
    off = 0
    for _, b2, traced, d in _isotypic_blocks(frame1, frame2, table, s):
        u, _, vh = _svd(traced, compute_uv=True)
        polar, width = u @ vh, b2.shape[1]
        if d > 1:
            # U V^H kron I as one broadcast product
            polar = (polar[:, None, :, None] * np.eye(d)[:, None]).reshape(width, width)
        np.matmul(b2, polar, out=turned[:, off:off + width])
        off += width
    return turned @ frame1.basis.conj().T


def _polar_letter(rho1: UnitaryRep, rho2: UnitaryRep, table: IrrepTable, s=None,
                  far=None) -> np.ndarray:
    """The polar factor L of F = mean_h rho2(h) s rho1(h)^H (`_isotypic_polar`),
    verified unitary to UNITARY_ATOL and to satisfy rho2(x) L = L rho1(x) on
    the group's generators to INTERTWINE_ATOL. With s = I (None) over the
    trivial group L is the exact identity. Given `far`, a callable returning
    the inputs' distance, a distance of FAR_DISTANCE or more warns, over a
    nontrivial group and only once the inputs are known to be isomorphic."""
    frame1, frame2 = _frames(rho1, rho2, table)
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
    gram = letter @ letter.conj().T
    diagonal = np.arange(dim)
    gram[diagonal, diagonal] -= 1.0
    uerr = np.abs(gram).max()
    if uerr > UNITARY_ATOL:
        raise NumericalError(f"assembled intertwiner is not unitary (deviation {uerr:.3e})")
    gens = rho1.group.generators
    moved = rho2.matrices[gens] @ letter
    moved -= letter @ rho1.matrices[gens]
    ierr = np.abs(moved).max(initial=0.0)
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
