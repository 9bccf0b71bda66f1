"""Seeded experiment sweeps over perturbation size, exponent, and seeds.

Cells are independent pure computations keyed by (preset, eps, p, seed)
indices; each derives its own random stream from the master seed, so the
CSV output is byte-identical across reruns, except for the runtime column.
Cells run in order. Failures are recorded per cell and do not stop the
sweep.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, replace

from .errors import RepStabError, ValidationError
from .graphs import PERTURB_EDGES, PERTURB_FULL, perturb
from .rng import derived_generator
from .schatten import _check_exponent
from .serialize import _overwrite
from .stabilize import (DEFAULT_GUARD, CorrectionContext, realize, stabilize,
                        uniform_lambda)

CSV_HEADER = ("preset", "seed", "p", "dim", "epsilon_in", "delta",
              "epsilon_out", "cone_gap", "runtime_ms", "error")

DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_P_GRID = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep run."""

    presets: tuple[str, ...]
    dim: int = 6
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    seeds_per_cell: int = 20
    master_seed: int = 0
    mode: str = PERTURB_EDGES
    guard: float = DEFAULT_GUARD

    def __post_init__(self):
        if not self.presets or not self.eps_grid or not self.p_grid:
            raise ValidationError("sweep grids must be nonempty")
        if not all(0 <= e < math.inf for e in self.eps_grid):
            raise ValidationError("perturbation sizes must be finite and nonnegative")
        if math.isnan(self.guard):
            raise ValidationError("guard must not be NaN")
        if self.mode not in (PERTURB_EDGES, PERTURB_FULL):
            raise ValidationError(f"unknown perturbation mode {self.mode!r}")
        for p in self.p_grid:
            _check_exponent(p)
        if self.seeds_per_cell <= 0 or self.dim <= 0:
            raise ValidationError("seeds per cell and dimension must be positive")


@dataclass(frozen=True)
class SweepRow:
    preset: str
    seed: int
    p: float
    dim: int
    epsilon_in: float
    delta: float | None
    epsilon_out: float | None
    cone_gap: float | None
    runtime_ms: float | None
    error: str = ""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Execute every cell of the grid; one row per (preset, eps, p, seed).

    Preset names are resolved through the preset registry.
    """
    from .presets import graph_preset
    rows = []
    for pi, name in enumerate(config.presets):
        # the tables and the boundary map are seeded by master_seed alone, so
        # one build per preset serves every p
        base_ctx = CorrectionContext.build(graph_preset(name), p=config.p_grid[0],
                                           seed=config.master_seed)
        lam = uniform_lambda(base_ctx, config.dim)
        for ei, eps in enumerate(config.eps_grid):
            for qi, p in enumerate(config.p_grid):
                ctx = replace(base_ctx, p=float(p))
                for si in range(config.seeds_per_cell):
                    rng = derived_generator(config.master_seed, pi, ei, qi, si)
                    try:
                        base = realize(lam, ctx)
                        inst = perturb(base, ctx.gog, eps, mode=config.mode, rng=rng)
                        tic = time.perf_counter()
                        _, report = stabilize(inst, ctx, guard=config.guard)
                        runtime = (time.perf_counter() - tic) * 1e3
                        rows.append(SweepRow(preset=name, seed=si, p=p, dim=report.dim,
                                             epsilon_in=eps, delta=report.delta,
                                             epsilon_out=report.epsilon,
                                             cone_gap=float(report.cone_gap),
                                             runtime_ms=runtime))
                    except RepStabError as exc:
                        rows.append(SweepRow(preset=name, seed=si, p=p, dim=config.dim,
                                             epsilon_in=eps, delta=None, epsilon_out=None,
                                             cone_gap=None, runtime_ms=None,
                                             error=f"{type(exc).__name__}: {exc}"))
    return rows


def write_csv(rows, path) -> None:
    """One CSV line per row under CSV_HEADER; ValidationError if the file cannot be written.

    An existing file is rewritten in place: the same inode, a symlink
    followed, then truncated to the new length. Truncating a file to zero
    and rewriting it makes ext4 flush it on close, which took 25-67 ms per
    rewrite against 0.5 ms per sweep cell. An interrupted write leaves a
    damaged file, as a fresh `open(path, "w")` would.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.preset, row.seed, _fmt(row.p), row.dim,
                         _fmt(row.epsilon_in), _fmt(row.delta),
                         _fmt(row.epsilon_out), _fmt(row.cone_gap),
                         _fmt(row.runtime_ms), row.error])
    _overwrite(path, buf.getvalue())
