"""Command-line harness wiring all modules into one executable.

Subcommands: simulate, cov, bounds, localize, figure, models.
Exit codes: 0 success, 2 configuration error, 3 numerical blowup,
4 unknown figure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import bound_inputs_from_model, covariance_bound
from .config import ExperimentConfig, parse_config
from .estimators import monte_carlo_pair_covariance, shifted_pair_covariance
from .figures import DEFAULT_SEED, FIGURES, UnknownFigureError, run_figure
from .integrator import NumericalBlowupError, simulate_ensemble
from .lattice import BlockCovariance, ContractViolationError, _integer
from .localization import localization_error_bound, localize
from .models import REGIMES
from .storage import (
    read_covariance,
    read_covariance_csv,
    write_array,
    write_covariance,
    write_covariance_csv,
    write_csv,
    write_ensemble_csv,
    write_metadata,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_UNKNOWN = 4


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ContractViolationError("--config is required for this subcommand")
    cfg = parse_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _out_dir(path) -> Path:
    """The output directory, checked before any work: a path that is, or lies
    under, an existing file is a ContractViolationError."""
    out = Path(path)
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            raise ContractViolationError(f"output path {path} is blocked by the file {part}")
    return out


def _write_run_metadata(out_dir: Path, name: str, cfg: ExperimentConfig, **extra) -> Path:
    return write_metadata(out_dir, name, {"command": name, "config": cfg.as_dict(), **extra})


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(cfg.out_dir)
    ensemble = simulate_ensemble(cfg.build_model(), cfg.run, cfg.n_samples, n_workers=cfg.threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_array(out_dir / "ensemble.cvl", ensemble.samples, ensemble.time)
    write_ensemble_csv(out_dir / "ensemble.csv", ensemble)
    _write_run_metadata(out_dir, "simulate", cfg)
    print(f"wrote {out_dir / 'ensemble.cvl'} and {out_dir / 'ensemble.csv'}")
    return EXIT_OK


def _cmd_cov(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(cfg.out_dir)
    half = cfg.n_blocks // 2
    max_lag = _integer(half if args.max_lag is None else args.max_lag, "--max-lag", 0, half + 1)
    ensemble = simulate_ensemble(cfg.build_model(), cfg.run, cfg.n_samples, n_workers=cfg.threads)
    rows = []
    for lag in range(max_lag + 1):
        sa = shifted_pair_covariance(ensemble, lag)
        rows.append((lag, sa.estimate, sa.std_error, sa.method))
    if ensemble.n_samples >= 2:
        for lag in range(max_lag + 1):
            mc = monte_carlo_pair_covariance(ensemble, lag)
            rows.append((lag, mc.estimate, mc.std_error, mc.method))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "cov_curve.csv"
    write_csv(path, ["lag", "estimate", "std_error", "method"], rows)
    # pooled-mean convention: the shift estimator centers with one mean over
    # all samples and positions
    _write_run_metadata(out_dir, "cov", cfg, mean_convention="pooled", max_lag=max_lag)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(cfg.out_dir)
    inputs = bound_inputs_from_model(cfg.build_model(), cfg.bounds_t, grad_g_sup=cfg.grad_g_sup)
    rows = []
    vacuous = False
    for beta in cfg.betas:
        for j in range(1, cfg.n_blocks + 1):
            ev = covariance_bound(1, j, beta, inputs)
            vacuous = vacuous or ev.vacuous
            rows.append((1, j, beta, ev.local_term, ev.global_term, ev.total))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "bounds.csv"
    write_csv(path, ["i", "j", "beta", "local", "global", "total"], rows)
    _write_run_metadata(out_dir, "bounds", cfg, t=cfg.bounds_t, any_vacuous=vacuous)
    if vacuous:
        print("warning: some bound evaluations overflowed and were capped (vacuous)", file=sys.stderr)
    print(f"wrote {path}")
    return EXIT_OK


def _read_covariance_any(path: str, block_dim: int):
    """The covariance in ``path``; an unreadable or malformed file is a ContractViolationError."""
    try:
        if path.endswith(".csv"):
            return read_covariance_csv(path, block_dim)
        cov, _ = read_covariance(path, block_dim)
    except OSError as exc:
        raise ContractViolationError(f"cannot read {path}: {exc.strerror or exc}") from None
    return cov


def _difference(a: BlockCovariance, b: BlockCovariance) -> BlockCovariance:
    """a - b; two q = 1 circulants subtract their first rows, in O(N), to the same bits."""
    if a.circulant and b.circulant and a.block_dim == 1:
        return BlockCovariance.from_ring_row(a.data[0] - b.data[0])
    return BlockCovariance(a.data - b.data, a.n_blocks, a.block_dim)


def _cmd_localize(args) -> int:
    if args.input is None:
        raise ContractViolationError("--input covariance file is required")
    out_dir = _out_dir(args.out or "out")
    cov = _read_covariance_any(args.input, args.block_dim)
    if args.bandwidth is not None:
        bandwidth = args.bandwidth
    else:
        if args.epsilon is None or args.beta is None or args.coefficient is None:
            raise ContractViolationError(
                "either --bandwidth or all of --epsilon/--beta/--coefficient are required"
            )
        from .localization import choose_bandwidth  # late import: perfbench's traced run patches it

        bandwidth = choose_bandwidth(args.epsilon, args.beta, args.coefficient, cov.n_blocks)
    bound = None
    if args.beta is not None and args.coefficient is not None:
        bound = localization_error_bound(bandwidth, args.beta, args.coefficient)
    truncated = localize(cov, bandwidth)
    measured = None
    if args.reference:
        reference = _read_covariance_any(args.reference, args.block_dim)
        if reference.n_blocks != truncated.n_blocks:
            raise ContractViolationError(
                f"--reference has {reference.n_blocks} blocks, --input has {truncated.n_blocks}"
            )
        measured = _difference(reference, truncated).norm2()

    out_dir.mkdir(parents=True, exist_ok=True)
    write_covariance(out_dir / "localized.cvl", truncated)
    write_covariance_csv(out_dir / "localized.csv", truncated)
    report = {
        "bandwidth": bandwidth,
        "error_bound": bound,
        "measured_error": measured,
        "note": "sample-size rule's universal constant is user-set, not theory-derived",
    }
    with open(out_dir / "localize_report.jsonl", "w") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    write_metadata(
        out_dir,
        "localize",
        {
            "command": "localize",
            "input": str(args.input),
            "block_dim": args.block_dim,
            "bandwidth": bandwidth,
        },
    )
    print(f"wrote {out_dir / 'localized.csv'} (bandwidth {bandwidth})")
    return EXIT_OK


def _cmd_figure(args) -> int:
    files = run_figure(
        args.figure_id,
        scale=args.scale,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        out_dir=_out_dir(args.out or "figures"),
        threads=1 if args.threads is None else args.threads,
    )
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_models(args) -> int:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["name", "epsilon", "a", "d_u", "w", "delta1", "delta2", "description"])
    for name in sorted(REGIMES):
        p = REGIMES[name].params
        numbers = (p.epsilon, p.a, p.d_u, p.w, p.delta1, p.delta2)
        out.writerow([name, *map(repr, numbers), REGIMES[name].description])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covloc",
        description="Simulate coupled lattice SDEs, estimate covariances, "
        "evaluate decay bounds, and localize covariance matrices.",
    )
    parser.add_argument("--version", action="version", version=f"covloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    threads_help = "threads that draw noise beside the stepping thread, at most one per spare core"

    def common(p):
        p.add_argument("--config", help="experiment config file (INI sections)")
        p.add_argument("--seed", type=int, help="override run.master_seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--threads", type=int, help=threads_help)

    p = sub.add_parser("simulate", help="run an ensemble and write the snapshot")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cov", help="lag-covariance curves from an ensemble")
    common(p)
    p.add_argument("--max-lag", type=int, help="largest ring lag to estimate")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("bounds", help="evaluate the covariance decay bounds")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("localize", help="band-truncate a covariance matrix")
    p.add_argument("--input", help="covariance file (.csv or CVL1 binary)")
    p.add_argument("--block-dim", type=int, default=1)
    p.add_argument("--bandwidth", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--coefficient", type=float, help="local decay coefficient")
    p.add_argument("--reference", help="reference covariance for measured error")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("figure", help="regenerate data for one figure")
    p.add_argument("figure_id", help=f"one of {', '.join(sorted(FIGURES))}")
    p.add_argument("--scale", choices=("paper", "desk"), default="desk")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, help=threads_help)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("models", help="list the regime presets")
    p.set_defaults(func=_cmd_models)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 for --help and --version, 2 for a bad command line
        return exc.code
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowupError as exc:
        report = {
            "error": "numerical-blowup",
            "time": exc.time,
            "block_index": exc.block_index,
            "sample_index": exc.sample_index,
        }
        print(json.dumps(report), file=sys.stderr)
        return EXIT_BLOWUP
    except UnknownFigureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
