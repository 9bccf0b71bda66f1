"""`run_sweep` realizes each preset's base representation once and shares it
across the preset's cells; each cell runs only `perturb` and `stabilize`."""

import sys

import pytest

import repstab.sweep as sweep
from repstab.errors import NumericalError, ValidationError
from repstab.graphs import perturb
from repstab.presets import graph_preset
from repstab.rng import derived_generator
from repstab.stabilize import realize, stabilize, uniform_lambda
from repstab.sweep import CSV_HEADER, SweepConfig, run_sweep

from conftest import context_apart

CONFIG = SweepConfig(presets=("Z2_free_Z3", "hnn_Z4_over_Z2"), dim=6, eps_grid=(1e-2, 1e-3),
                     p_grid=(1.0, 2.0), seeds_per_cell=2, master_seed=5)
RESULT_FIELDS = ("dim", "delta", "epsilon_out", "cone_gap", "error")


def _reference_rows(config):
    """Each cell on its own: a context built at the cell's p, then realize,
    perturb and stabilize."""
    rows = []
    for pi, name in enumerate(config.presets):
        for ei, eps in enumerate(config.eps_grid):
            for qi, p in enumerate(config.p_grid):
                ctx = context_apart(graph_preset(name), p, config.master_seed)
                for si in range(config.seeds_per_cell):
                    rng = derived_generator(config.master_seed, pi, ei, qi, si)
                    base = realize(uniform_lambda(ctx, config.dim), ctx)
                    inst = perturb(base, ctx.gog, eps, mode=config.mode, rng=rng)
                    _, report = stabilize(inst, ctx, guard=config.guard)
                    rows.append((name, si, p, eps, report.dim, report.delta, report.epsilon,
                                 float(report.cone_gap), ""))
    return rows


def _key(row):
    return (row.preset, row.seed, row.p, row.epsilon_in) + tuple(
        getattr(row, f) for f in RESULT_FIELDS)


def test_csv_header_is_the_ten_columns():
    assert CSV_HEADER == ("preset", "seed", "p", "dim", "epsilon_in", "delta",
                          "epsilon_out", "cone_gap", "runtime_ms", "error")


def test_realize_runs_once_per_preset(monkeypatch):
    calls = []

    def counted(lam, ctx):
        calls.append(ctx.gog.name)
        return realize(lam, ctx)

    monkeypatch.setattr(sweep, "realize", counted)
    rows = run_sweep(CONFIG)
    assert len(rows) == 16
    assert calls == ["Z2_free_Z3", "hnn_Z4_over_Z2"]


def test_rows_match_cells_run_on_their_own():
    rows = run_sweep(CONFIG)
    assert [_key(r) for r in rows] == _reference_rows(CONFIG)
    assert all(r.runtime_ms > 0 for r in rows)


def test_a_repeated_sweep_builds_no_table(monkeypatch):
    # the tables of a preset's graph are kept per seed, so a second identical
    # sweep builds none and returns the same rows
    st = sys.modules["repstab.stabilize"]
    first = run_sweep(CONFIG)
    calls = []

    def counted(group, seed=0, _real=st.irrep_table):
        calls.append(group)
        return _real(group, seed=seed)

    monkeypatch.setattr(st, "irrep_table", counted)
    second = run_sweep(CONFIG)
    assert calls == []
    assert [_key(r) for r in second] == [_key(r) for r in first]


@pytest.mark.parametrize("seed", [-1, 0.5, "3", None])
def test_config_rejects_a_master_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        SweepConfig(presets=("Z2_free_Z3",), master_seed=seed)


def test_a_failing_realize_fills_every_cell_with_its_error(monkeypatch):
    def broken(lam, ctx):
        raise NumericalError("no base")

    monkeypatch.setattr(sweep, "realize", broken)
    rows = run_sweep(CONFIG)
    assert len(rows) == 16
    for row in rows:
        assert row.error == "NumericalError: no base"
        assert row.dim == CONFIG.dim
        assert (row.delta, row.epsilon_out, row.cone_gap, row.runtime_ms) == (None,) * 4


def test_config_rejects_an_unknown_preset():
    with pytest.raises(ValidationError, match="unknown graph preset 'nope'"):
        SweepConfig(presets=("Z2_free_Z3", "nope"))
