"""Command-line front end.

Subcommands: irreps | realize | perturb | stabilize | sweep | presets.
Exit codes: 0 success, 1 guard refusal, 2 input error (an unwritable --out
included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cones import MultiplicityVector, as_integer
from .errors import (GuardExceededError, NumericalError, RepStabError,
                     ValidationError)
from .graphs import GraphOfGroups, measure_defect, perturb, rep_multiplicities
from .groups import group_from_json
from .irreps import irrep_table
from .presets import (graph_preset, graph_preset_names, group_preset,
                      group_preset_names)
from .rng import derived_generator
from .serialize import (_overwrite, irrep_table_to_json, load_graph, load_json,
                        matrix_to_json, report_to_json, theta_to_json)
from .stabilize import (DEFAULT_GUARD, CorrectionContext, realize, stabilize,
                        uniform_lambda)
from .sweep import (DEFAULT_EPS_GRID, DEFAULT_P_GRID, SweepConfig, run_sweep,
                    write_csv)

EXIT_OK = 0
EXIT_GUARD = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
OUTPUT_DEFECT_TOL = 1e-9


def _write_json(obj, path) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        _overwrite(path, text + "\n")
    else:
        print(text)


def _resolve_graph(args) -> GraphOfGroups:
    if getattr(args, "config", None):
        return load_graph(args.config)
    if getattr(args, "preset", None):
        return graph_preset(args.preset)
    raise ValidationError("pass --preset NAME or --config PATH")


def _resolve_lambda(args, ctx) -> MultiplicityVector:
    raw = getattr(args, "lam", None)
    if raw:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            obj = load_json(raw)
        blocks = obj.get("blocks") if isinstance(obj, dict) else obj
        if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
            raise ValidationError(
                '--lam must be a list of per-vertex lists, or an object with a "blocks" list')
        lam = MultiplicityVector("vertex", tuple(tuple(as_integer(x, "--lam entry") for x in b)
                                                 for b in blocks))
        ctx.boundary._require(lam, "vertex")
        return lam
    return uniform_lambda(ctx, args.dim)


def _instance_report(gog, ctx, rho, args, extra=None) -> dict:
    obj = {
        "graph": gog.name or "custom",
        "p": ctx.p,
        "dim": rho.dim,
        "defect": measure_defect(rho, gog, ctx.p),
        "multiplicities": theta_to_json(rep_multiplicities(rho, ctx.vertex_tables)),
    }
    if extra:
        obj.update(extra)
    if args.dump_matrices:
        obj["vertex_matrices"] = [[matrix_to_json(m) for m in rep.matrices]
                                  for rep in rho.vertex_reps]
        obj["edge_matrices"] = [matrix_to_json(u) for u in rho.edge_unitaries]
    return obj


def cmd_presets(args) -> int:
    print("graph presets:")
    for name in graph_preset_names():
        gog = graph_preset(name)
        groups = ", ".join(g.name or f"order-{g.order}" for g in gog.vertex_groups)
        edges = ", ".join(g.name or f"order-{g.order}" for g in gog.edge_groups)
        print(f"  {name}: vertices [{groups}], edge groups [{edges}]")
    print("group presets:")
    print("  " + ", ".join(group_preset_names()))
    return EXIT_OK


def cmd_irreps(args) -> int:
    if args.config:
        group = group_from_json(load_json(args.config))
    elif args.preset:
        group = group_preset(args.preset)
    else:
        raise ValidationError("pass --preset NAME or --config PATH")
    table = irrep_table(group, seed=args.seed)
    dims = table.dims
    label = group.name or f"order-{group.order}"
    print(f"group {label}: order {group.order}, {group.n_classes} classes, "
          f"{len(table)} irreducibles")
    print(f"dims: {dims.tolist()}  (sum of squares {int(np.sum(dims ** 2))} = order: "
          f"{int(np.sum(dims ** 2)) == group.order})")
    for k, p in enumerate(table.irreps):
        chars = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in p.character)
        print(f"  irrep {k}: dim {p.dim}, character [{chars}]")
    if args.out:
        _write_json(irrep_table_to_json(table), args.out)
    return EXIT_OK


def cmd_realize(args) -> int:
    gog = _resolve_graph(args)
    ctx = CorrectionContext.build(gog, p=args.p, seed=args.seed)
    lam = _resolve_lambda(args, ctx)
    rho = realize(lam, ctx)
    report = _instance_report(gog, ctx, rho, args, extra={"lambda": theta_to_json(lam)})
    _write_json(report, args.out)
    return EXIT_OK


def cmd_perturb(args) -> int:
    gog = _resolve_graph(args)
    ctx = CorrectionContext.build(gog, p=args.p, seed=args.seed)
    lam = _resolve_lambda(args, ctx)
    rng = derived_generator(args.seed, 2)
    rho = perturb(realize(lam, ctx), gog, args.eps, mode=args.mode, rng=rng)
    report = _instance_report(gog, ctx, rho, args,
                              extra={"epsilon_in": args.eps, "mode": args.mode})
    _write_json(report, args.out)
    return EXIT_OK


def cmd_stabilize(args) -> int:
    gog = _resolve_graph(args)
    ctx = CorrectionContext.build(gog, p=args.p, seed=args.seed)
    lam = _resolve_lambda(args, ctx)
    rng = derived_generator(args.seed, 2)
    base = realize(lam, ctx)
    inst = perturb(base, gog, args.eps, mode=args.mode, rng=rng) if args.eps != 0 else base
    corrected, report = stabilize(inst, ctx, guard=args.guard)
    obj = report_to_json(report)
    obj["graph"] = gog.name or "custom"
    if args.dump_matrices:
        obj["vertex_matrices"] = [[matrix_to_json(m) for m in rep.matrices]
                                  for rep in corrected.vertex_reps]
        obj["edge_matrices"] = [matrix_to_json(u) for u in corrected.edge_unitaries]
    _write_json(obj, args.out)
    if report.output_defect > OUTPUT_DEFECT_TOL:
        print(f"output defect {report.output_defect:.3e} exceeds {OUTPUT_DEFECT_TOL}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(args) -> int:
    presets = tuple(args.preset) if args.preset else graph_preset_names()
    config = SweepConfig(
        presets=presets,
        dim=args.dim,
        eps_grid=tuple(args.eps) if args.eps else DEFAULT_EPS_GRID,
        p_grid=tuple(args.p) if args.p else DEFAULT_P_GRID,
        seeds_per_cell=args.seeds,
        master_seed=args.seed,
        mode=args.mode,
        guard=args.guard,
    )
    if not Path(args.out).parent.is_dir():
        raise ValidationError(f"could not write {args.out}: its directory does not exist")
    rows = run_sweep(config)
    write_csv(rows, args.out)
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.out} ({failures} failed cells)")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _add_graph_args(sub, with_eps: bool):
    sub.add_argument("--preset", help="graph preset name")
    sub.add_argument("--config", help="path to a graph-of-groups JSON config")
    sub.add_argument("--lam", help="multiplicity vector: inline JSON blocks or a file path")
    sub.add_argument("--dim", type=int, default=6, help="per-vertex dimension when --lam is absent")
    sub.add_argument("--p", type=float, default=2.0, help="Schatten exponent")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--out", help="output JSON path (default: stdout)")
    sub.add_argument("--dump-matrices", action="store_true", help="include matrices in the output")
    if with_eps:
        sub.add_argument("--eps", type=float, default=0.0, help="perturbation size")
        sub.add_argument("--mode", default="edges-only",
                         choices=["edges-only", "edges-and-conjugate-vertices"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repstab",
        description="construct, perturb, and correct approximate unitary "
                    "representations of graph-of-groups covers")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("presets", help="list graph and group presets")

    irr = subs.add_parser("irreps", help="irreducible table of a finite group")
    irr.add_argument("--preset", help="group preset name")
    irr.add_argument("--config", help="path to a group JSON file")
    irr.add_argument("--seed", type=int, default=0)
    irr.add_argument("--out", help="write the full table as JSON")

    _add_graph_args(subs.add_parser("realize", help="exact representation from a multiplicity vector"),
                    with_eps=False)
    _add_graph_args(subs.add_parser("perturb", help="realize then perturb; report the defect"),
                    with_eps=True)
    stab = subs.add_parser("stabilize", help="realize, perturb, correct; write the report")
    _add_graph_args(stab, with_eps=True)
    stab.add_argument("--guard", type=float, default=DEFAULT_GUARD,
                      help="refuse inputs whose defect reaches this value")

    sw = subs.add_parser("sweep", help="seeded grid over (eps, p, seeds); write CSV")
    sw.add_argument("--preset", action="append", help="graph preset (repeatable; default: all)")
    sw.add_argument("--dim", type=int, default=6)
    sw.add_argument("--eps", type=float, action="append", help="perturbation size (repeatable)")
    sw.add_argument("--p", type=float, action="append", help="Schatten exponent (repeatable)")
    sw.add_argument("--seeds", type=int, default=20, help="seeds per cell")
    sw.add_argument("--seed", type=int, default=0, help="master seed")
    sw.add_argument("--mode", default="edges-only",
                    choices=["edges-only", "edges-and-conjugate-vertices"])
    sw.add_argument("--guard", type=float, default=DEFAULT_GUARD)
    sw.add_argument("--out", required=True, help="CSV output path")
    return parser


_HANDLERS = {
    "presets": cmd_presets,
    "irreps": cmd_irreps,
    "realize": cmd_realize,
    "perturb": cmd_perturb,
    "stabilize": cmd_stabilize,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GuardExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RepStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
