"""Command-line surface: instance generation, solver runs, verification,
NCE demos and loss-landscape grids.

Subcommands
-----------
gen         write a planted instance as JSON
solve       run the Newton solver, write a trace CSV and a summary JSON
landscape   evaluate the loss terms over a 2D grid, write CSV
verify      run the seeded check suite, print a pass/fail table
nce         run the correlated-vs-shuffled contrastive experiment

All outputs are byte-reproducible for a fixed --seed under one BLAS
library and thread count (solver step timings are only written when
--timings is passed).  Another thread count may change the last bits of
the Hessian's congruence gemm, and with them solve's trace and summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .exceptions import DomainError
from .landscape import average_grids, landscape_grid
from .model import ProblemInstance, _write_json, _write_text
from .nce import paired_vs_shuffled_bounds
from .newton import SolverConfig, solve
from .planted import GeneratorSpec, basin_start, generate_planted
from .suite import CHECK_NAMES, run_suite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERS = 2


def _add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=20, help="number of rows")
    parser.add_argument("--d", type=int, default=5, help="number of columns")
    parser.add_argument(
        "--conditioning", type=float, default=5.0, help="target sigma_max/sigma_min of A"
    )
    parser.add_argument(
        "--norm-cap-r", type=float, default=4.0, help="cap on ||A||, ||b||, ||x*||"
    )
    parser.add_argument(
        "--ridge-l", type=float, default=1.0, help="planted strong-convexity level"
    )


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(
        n=args.n,
        d=args.d,
        conditioning=args.conditioning,
        norm_cap_r=args.norm_cap_r,
        ridge_l=args.ridge_l,
        seed=args.seed,
    )


def _load_or_generate(args) -> ProblemInstance:
    if args.instance:
        return ProblemInstance.load(args.instance)
    inst, _ = generate_planted(_spec_from_args(args))
    return inst


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise DomainError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _cmd_gen(args) -> int:
    inst, _ = generate_planted(_spec_from_args(args))
    inst.save(args.out or sys.stdout)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_or_generate(args)
    cfg = SolverConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        mode=args.mode,
        sample_epsilon=args.sample_epsilon,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    if args.x0 is not None:
        x0 = _parse_vector(args.x0, "--x0")
    elif inst.x_star is not None:
        x0 = basin_start(inst.x_star, args.x0_offset, [args.seed, 101])
    else:
        x0 = np.zeros(inst.d)

    trace = solve(inst, x0, cfg)
    if args.out:
        trace.write_csv(args.out, include_timings=args.timings)
    last = trace.iterates[-1]
    summary = {
        "converged": trace.converged,
        "iters": trace.iterations_run,
        "final_grad_norm": last.grad_norm,
        "final_err": last.err_to_opt,
    }
    _write_json(args.summary or sys.stdout, summary)
    return EXIT_OK if trace.converged else EXIT_MAX_ITERS


def _cmd_landscape(args) -> int:
    center = _parse_vector(args.center, "--center") if args.center is not None else None
    if args.avg_seeds < 1:
        raise DomainError("--avg-seeds must be >= 1")
    if args.instance:
        if args.avg_seeds > 1:
            raise DomainError("--avg-seeds only applies to generated instances")
        insts = [ProblemInstance.load(args.instance)]
    else:
        spec = _spec_from_args(args)
        insts = [
            generate_planted(dataclasses.replace(spec, seed=args.seed + i))[0]
            for i in range(args.avg_seeds)
        ]
    grids = [
        landscape_grid(inst, center=center, half_width=args.half_width, resolution=args.resolution)
        for inst in insts
    ]
    average_grids(grids).write_csv(args.out or sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.checks is None:
        names = list(CHECK_NAMES)
    else:
        cleaned = args.checks.strip()
        names = (
            []
            if cleaned in ("", "none")
            else [tok.strip() for tok in cleaned.split(",") if tok.strip()]
        )
    results = run_suite(names, args.seed)
    for res in results:
        print(f"{res.name:<12} {'PASS' if res.passed else 'FAIL'}")
    all_passed = all(res.passed for res in results)
    print(f"{len(results)} checks, all_passed={all_passed}")
    if args.out:
        _write_json(
            args.out,
            {
                "all_passed": all_passed,
                "num_checks": len(results),
                "checks": [res.to_dict() for res in results],
            },
        )
    return EXIT_OK if all_passed else EXIT_ERROR


def _cmd_nce(args) -> int:
    if args.seeds < 1:
        raise DomainError("--seeds must be >= 1")
    rows = []
    for i in range(args.seeds):
        corr, shuf = paired_vs_shuffled_bounds(
            args.seed + i,
            dim_anchor=args.dim_anchor,
            dim_partner=args.dim_partner,
            pool_size=args.pool_size,
            k=args.k,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
        )
        rows.append((args.seed + i, corr, shuf))
    _write_text(
        args.out or sys.stdout,
        ["seed,bound_correlated,bound_shuffled\n"] + [f"{s},{c!r},{u!r}\n" for s, c, u in rows],
    )
    mean_corr = float(np.mean([c for _, c, _ in rows]))
    mean_shuf = float(np.mean([u for _, _, u in rows]))
    _write_json(
        args.summary or sys.stdout,
        {
            "seeds": args.seeds,
            "mean_correlated": mean_corr,
            "mean_shuffled": mean_shuf,
            "margin": mean_corr - mean_shuf,
        },
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` returns a fresh namespace on every call, so sharing the
    parser cannot carry one call's options into the next.
    """
    parser = argparse.ArgumentParser(
        prog="softmaxopt",
        description="Softmax-regression objectives, Newton solver and NCE demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a planted instance")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="instance JSON path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run the Newton solver")
    p_solve.add_argument("--instance", help="instance JSON (otherwise generate)")
    _add_generator_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--epsilon", type=float, default=1e-10)
    p_solve.add_argument("--delta", type=float, default=0.05)
    p_solve.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p_solve.add_argument("--sample-epsilon", type=float, default=0.1)
    p_solve.add_argument("--max-iters", type=int, default=50)
    p_solve.add_argument("--x0", help="comma-separated start point")
    p_solve.add_argument(
        "--x0-offset",
        type=float,
        default=1e-3,
        help="start distance from the planted optimum when no --x0 is given",
    )
    p_solve.add_argument("--out", help="trace CSV path")
    p_solve.add_argument("--summary", help="summary JSON path (default: stdout)")
    p_solve.add_argument(
        "--timings", action="store_true", help="include wall-clock step times in the CSV"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_land = sub.add_parser("landscape", help="evaluate a 2D loss grid")
    p_land.add_argument("--instance", help="instance JSON (otherwise generate)")
    _add_generator_flags(p_land)
    p_land.add_argument("--seed", type=int, default=0)
    p_land.add_argument("--half-width", type=float, default=1.0)
    p_land.add_argument("--resolution", type=int, default=21)
    p_land.add_argument("--center", help="comma-separated center point")
    p_land.add_argument(
        "--avg-seeds",
        type=int,
        default=1,
        help="average the surface over this many generated instances",
    )
    p_land.add_argument("--out", help="grid CSV path (default: stdout)")
    p_land.set_defaults(func=_cmd_landscape)

    p_verify = sub.add_parser("verify", help="run the check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--checks",
        help=f"comma-separated subset of {','.join(CHECK_NAMES)}; 'none' for empty",
    )
    p_verify.add_argument("--out", help="JSON report path")
    p_verify.set_defaults(func=_cmd_verify)

    p_nce = sub.add_parser("nce", help="correlated-vs-shuffled bound experiment")
    p_nce.add_argument("--seed", type=int, default=0)
    p_nce.add_argument("--seeds", type=int, default=20, help="number of repetitions")
    p_nce.add_argument("--k", type=int, default=8, help="candidates per batch")
    p_nce.add_argument("--dim-anchor", type=int, default=8)
    p_nce.add_argument("--dim-partner", type=int, default=8)
    p_nce.add_argument("--pool-size", type=int, default=96)
    p_nce.add_argument("--epochs", type=int, default=12)
    p_nce.add_argument("--learning-rate", type=float, default=0.2)
    p_nce.add_argument("--out", help="per-seed CSV path (default: stdout)")
    p_nce.add_argument("--summary", help="summary JSON path (default: stdout)")
    p_nce.set_defaults(func=_cmd_nce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
