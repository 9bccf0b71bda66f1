"""`CorrectionContext.build` keeps a graph's tables and boundary map per seed,
and seeds are nonnegative integers wherever they are taken."""

import sys

import numpy as np
import pytest

import repstab as rs
from repstab.errors import NumericalError, ValidationError
from repstab.graphs import PERTURB_FULL
from repstab.presets import _GRAPH_BUILDERS
from repstab.rng import as_generator, derived_generator

from conftest import context_apart


def _parts(ctx):
    return ctx.vertex_tables, ctx.edge_tables, ctx.boundary


def _shared(a, b):
    """Whether two contexts hold the same table and boundary objects."""
    return all(x is y for x, y in zip(_parts(a), _parts(b)))


def _disjoint(a, b):
    """Whether two contexts hold no table or boundary object in common."""
    ids = {id(t) for t in a.vertex_tables + a.edge_tables + (a.boundary,)}
    return not ids & {id(t) for t in b.vertex_tables + b.edge_tables + (b.boundary,)}


def test_builds_at_every_exponent_share_the_tables():
    gog = _GRAPH_BUILDERS["hnn_Z4_over_Z2"]()
    ctxs = [rs.CorrectionContext.build(gog, p=p, seed=0) for p in (1, 2.0, 4.0)]
    assert [ctx.p for ctx in ctxs] == [1.0, 2.0, 4.0]
    assert all(_shared(ctxs[0], ctx) for ctx in ctxs[1:])
    assert list(gog._tables) == [0]


def test_another_seed_or_graph_object_shares_nothing():
    gog, twin = _GRAPH_BUILDERS["Z2_free_Z3"](), _GRAPH_BUILDERS["Z2_free_Z3"]()
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    assert _disjoint(ctx, rs.CorrectionContext.build(gog, p=2.0, seed=1))
    assert _disjoint(ctx, rs.CorrectionContext.build(twin, p=2.0, seed=0))
    assert sorted(gog._tables) == [0, 1] and list(twin._tables) == [0]


def test_a_numpy_integer_seed_shares_the_tables_of_its_int():
    gog = _GRAPH_BUILDERS["infinite_dihedral"]()
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=np.int64(3))
    assert _shared(ctx, rs.CorrectionContext.build(gog, p=1.0, seed=3))
    assert list(gog._tables) == [3] and type(next(iter(gog._tables))) is int


@pytest.mark.parametrize("failing_call", [1, 3])
def test_a_failed_build_keeps_nothing(monkeypatch, failing_call):
    # the first call builds a vertex table, the third the edge table
    gog = _GRAPH_BUILDERS["Z2_free_Z3"]()
    st = sys.modules["repstab.stabilize"]
    calls = []

    def failing(group, seed=0, _real=st.irrep_table):
        calls.append(group)
        if len(calls) == failing_call:
            raise NumericalError("no table")
        return _real(group, seed=seed)

    monkeypatch.setattr(st, "irrep_table", failing)
    with pytest.raises(NumericalError, match="no table"):
        rs.CorrectionContext.build(gog, p=2.0, seed=0)
    assert gog._tables == {}
    monkeypatch.undo()
    ctx = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    assert all(x is y for x, y in zip(gog._tables[0], _parts(ctx)))


def _assert_same_rep(a, b):
    for x, y in zip(a.vertex_reps, b.vertex_reps):
        np.testing.assert_array_equal(x.matrices, y.matrices)
    for x, y in zip(a.edge_unitaries, b.edge_unitaries):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("name", rs.graph_preset_names() + ("s3_twisted_amalgam",))
def test_kept_tables_give_the_outputs_of_tables_built_apart(request, name):
    gog = (request.getfixturevalue(name) if name == "s3_twisted_amalgam"
           else rs.graph_preset(name))
    rs.CorrectionContext.build(gog, p=1.0, seed=0)
    kept = rs.CorrectionContext.build(gog, p=2.0, seed=0)
    apart = context_apart(gog, p=2.0)
    assert _disjoint(kept, apart)
    lam = rs.uniform_lambda(kept, 12)
    realized = [rs.realize(lam, ctx) for ctx in (kept, apart)]
    _assert_same_rep(*realized)
    outs = []
    for ctx, base in zip((kept, apart), realized):
        inst = rs.perturb(base, gog, 1e-2, mode=PERTURB_FULL, rng=np.random.default_rng(5))
        outs.append(rs.stabilize(inst, ctx))
    (out_kept, report_kept), (out_apart, report_apart) = outs
    _assert_same_rep(out_kept, out_apart)
    fields = [f for f in vars(report_kept) if f != "timings_ms"]
    assert ([getattr(report_kept, f) for f in fields]
            == [getattr(report_apart, f) for f in fields])


BAD_SEEDS = [-1, np.int64(-2), 0.9, -0.5, 1.5, "3", None, [1]]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_build_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # a float seed used to build the tables of its integer part
    gog = _GRAPH_BUILDERS["Z2_free_Z3"]()
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        rs.CorrectionContext.build(gog, p=2.0, seed=seed)
    assert gog._tables == {}


@pytest.mark.parametrize("seed", BAD_SEEDS + [np.random.default_rng(0)],
                         ids=[repr(s) for s in BAD_SEEDS] + ["Generator"])
def test_derived_generator_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        derived_generator(seed, 0)


@pytest.mark.parametrize("seed", [s for s in BAD_SEEDS if s is not None], ids=repr)
def test_as_generator_and_irrep_table_reject_a_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        as_generator(seed)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        rs.irrep_table(rs.cyclic_group(3), seed=seed)


def test_as_generator_takes_none_a_seed_sequence_or_a_generator():
    rng = np.random.default_rng(4)
    assert as_generator(rng) is rng
    assert isinstance(as_generator(None), np.random.Generator)
    same = [as_generator(s).integers(1 << 30) for s in
            (np.random.SeedSequence(4), 4, np.uint8(4))]
    assert same[0] == same[1] == same[2]
