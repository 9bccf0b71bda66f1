"""Shared fixtures and independent oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest

import repstab as rs


@pytest.fixture(scope="session")
def z2():
    return rs.cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return rs.cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return rs.cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return rs.symmetric_group(3)


@pytest.fixture(scope="session")
def z2_table(z2):
    return rs.irrep_table(z2, seed=0)


@pytest.fixture(scope="session")
def z3_table(z3):
    return rs.irrep_table(z3, seed=0)


@pytest.fixture(scope="session")
def s3_table(s3):
    return rs.irrep_table(s3, seed=0)


@pytest.fixture(scope="session")
def preset_contexts():
    """CorrectionContext per (preset, p) used across stabilizer tests."""
    out = {}
    for name in rs.graph_preset_names():
        for p in (1.0, 2.0, 4.0):
            out[(name, p)] = rs.CorrectionContext.build(rs.graph_preset(name), p=p, seed=0)
    return out


@pytest.fixture(scope="session")
def z2_amalgam():
    """Two Z2 vertices over a Z2 edge with identity inclusions.

    The only preset with a nontrivial boundary map is degenerate (its two
    inclusions coincide), so this graph supplies genuinely nonzero boundary
    values for cone tests.
    """
    z2 = rs.cyclic_group(2)
    graph = rs.serre_graph(2, [(0, 1)])
    return rs.graph_of_groups(graph, [z2, z2], [z2], [[0, 1], [0, 1]], name="z2_amalgam")


@pytest.fixture
def milp_calls(monkeypatch):
    """A list that grows by one entry per `repstab.cones.milp` call."""
    from repstab import cones
    calls = []
    real = cones.milp

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "milp", counting)
    return calls


def random_rep(table, dim, rng, conjugate=True):
    """Random representation: canonical blocks of a random multiplicity
    vector of total dimension `dim`, optionally moved to a random basis."""
    dims = table.dims
    mults = np.zeros(len(table), dtype=int)
    remaining = dim
    order = rng.permutation(len(table))
    for idx in order[:-1]:
        cap = remaining // dims[idx]
        take = int(rng.integers(0, cap + 1))
        mults[idx] = take
        remaining -= take * dims[idx]
    # greedily fill the rest with dimension-1 irreps, then whatever fits
    last = order[-1]
    if dims[last] > 0:
        mults[last] += remaining // dims[last]
        remaining -= (remaining // dims[last]) * dims[last]
    for idx in np.argsort(dims):
        while remaining >= dims[idx]:
            mults[idx] += 1
            remaining -= dims[idx]
    rep = rs.rep_from_multiplicities(table, mults)
    if conjugate:
        from repstab.rng import random_unitary
        rep = rs.conjugate_rep(rep, random_unitary(rep.dim, rng))
    return rep


def dense_average(rho1, rho2):
    """Oracle: the group average of rho2(g) rho1(g)^H, formed densely."""
    return np.einsum("gij,gkj->ik", rho2.matrices, rho1.matrices.conj()) / rho1.group.order


def invariance_error(rep, basis):
    """Oracle: the largest entry of rho(g) B - B B^H rho(g) B over every g."""
    moved = rep.matrices @ basis
    return np.abs(moved - basis @ (basis.conj().T @ moved)).max(initial=0.0)


def elementwise_inner_products(rep, table):
    """Oracle: <chi_rep, chi_k> for every irreducible by plain loops over the
    group elements, with no class weights."""
    g = rep.group
    class_of = np.empty(g.order, dtype=int)
    for k, cls in enumerate(g.classes):
        class_of[list(cls)] = k
    out = []
    for irrep in table.irreps:
        acc = 0.0 + 0.0j
        for x in range(g.order):
            acc += np.trace(rep.matrices[x]) * np.conj(irrep.character[class_of[x]])
        out.append(acc / g.order)
    return np.array(out)


def brute_force_conjugacy_classes(table):
    """Oracle: conjugacy classes by direct enumeration with plain loops."""
    mult = np.asarray(table)
    n = mult.shape[0]
    identity = next(e for e in range(n)
                    if all(mult[e][g] == g and mult[g][e] == g for g in range(n)))
    inv = [next(h for h in range(n) if mult[g][h] == identity) for g in range(n)]
    seen, classes = set(), []
    for g in range(n):
        if g in seen:
            continue
        cls = sorted({mult[mult[h][g]][inv[h]] for h in range(n)})
        classes.append(tuple(int(x) for x in cls))
        seen.update(cls)
    return tuple(classes)


def enumerate_cone(block_dims, max_total):
    """All nonnegative integer block tuples with weighted coordinate sum <= max_total.

    `block_dims` is a list of per-block weight tuples; the constraint is on
    the total over all blocks (i.e. |V| * the vertex norm).
    """
    flat_dims = [d for dims in block_dims for d in dims]

    def rec(i, budget):
        if i == len(flat_dims):
            yield ()
            return
        d = flat_dims[i]
        for v in range(budget // d + 1):
            for rest in rec(i + 1, budget - v * d):
                yield (v,) + rest

    lengths = [len(dims) for dims in block_dims]
    for flat in rec(0, max_total):
        yield rs.MultiplicityVector.from_flat("vertex", flat, lengths)


def enumerate_kernel_cone(bmap, max_norm):
    """All kernel-cone vectors with vertex norm <= max_norm, by filtering."""
    out = []
    for lam in enumerate_cone(bmap.vertex_dims, max_norm * bmap.n_vertices):
        if bmap.apply(lam).is_zero():
            out.append(lam)
    return out


def brute_force_projection(lam, bmap, kernel_points=None):
    """Oracle for the cone projection: exhaustive scan of the kernel cone.

    Returns (optimal distance as Fraction, lexicographically smallest argmin).
    """
    cap = bmap.vertex_norm(lam)
    if kernel_points is None:
        kernel_points = enumerate_kernel_cone(bmap, int(cap) + 1)
    best = None
    best_mu = None
    for mu in kernel_points:
        if bmap.vertex_norm(mu) > cap:
            continue
        dist = bmap.vertex_norm(lam - mu)
        key = (dist, mu.flatten())
        if best is None or key < (best, best_mu.flatten()):
            best, best_mu = dist, mu
    return best, best_mu


def hermitian_sqrt(h):
    """Oracle square root of a positive semidefinite Hermitian matrix."""
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
