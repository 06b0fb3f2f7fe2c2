"""Command-line entry point: simulate, analyze, report, export-svg.

Exit codes: 0 on success, 1 on a domain error (bad data, refused
overwrite, port fault), 2 on a usage error (unknown or inconsistent
flags). ``--seed`` falls back to the ``LUMISPEC_SEED`` environment
variable, then to 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import dataio
from .charts import render_line_chart
from .engine import AcquisitionPort, SimulatedPort, SweepPlan, run_triplicate
from .errors import DataIoError, LumispecError, NonPositiveAucError
from .geometry import FlatSurface, PivotGeometry, SphereSurface, SurfaceModel
from .optics import OpticalConfig
from .spectral import (
    PipelineConfig,
    auc_profile,
    normalize_above_cutoff,
    profile_stats,
    run_pipeline,
    smooth_window2,
)

SEED_ENV_VAR = "LUMISPEC_SEED"


# --- argument plumbing ------------------------------------------------------

def _number(kind: type, requirement: str, accept: Callable[[Any], bool] = lambda v: True):
    """argparse type: parse text as ``kind``, then require ``accept(value)``.

    Floats must also be finite.
    """

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        if (kind is float and not math.isfinite(value)) or not accept(value):
            got = value if kind is int else text
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {got}")
        return value

    return convert


_positive_int = _number(int, ">= 1", lambda v: v >= 1)
_nonneg_int = _number(int, ">= 0", lambda v: v >= 0)
_positive_float = _number(float, "a finite positive number", lambda v: v > 0)
_nonneg_float = _number(float, "a finite non-negative number", lambda v: v >= 0)
_finite_float = _number(float, "finite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumispec",
        description="Simulate and analyze angular fluorescence sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="synthesize a sweep run and write a run directory"
    )
    p_sim.add_argument(
        "--geometry", choices=("flat", "convex"), required=True,
        help="phantom surface under the scanner",
    )
    p_sim.add_argument(
        "--sphere-radius-mm", type=_positive_float, default=None,
        help="sphere radius; required for convex geometry",
    )
    p_sim.add_argument("--trials", type=_positive_int, default=3)
    p_sim.add_argument(
        "--seed", type=_nonneg_int, default=None,
        help=f"master seed (default: ${SEED_ENV_VAR} or 0)",
    )
    p_sim.add_argument("--noise-sigma", type=_nonneg_float, default=None)
    p_sim.add_argument("--kappa", type=_nonneg_float, default=None)
    p_sim.add_argument("--out", required=True, help="run directory to create")
    p_sim.add_argument("--start-deg", type=_finite_float, default=None)
    p_sim.add_argument("--step-deg", type=_positive_float, default=None)
    p_sim.add_argument("--n-steps", type=_positive_int, default=None)
    p_sim.add_argument(
        "--force", action="store_true",
        help="write into a non-empty output directory",
    )
    p_sim.set_defaults(func=cmd_simulate, parser=p_sim)

    p_ana = sub.add_parser(
        "analyze", help="run the AUC pipeline over a run directory"
    )
    p_ana.add_argument("--run", required=True, help="run directory to analyze")
    p_ana.add_argument("--cutoff-nm", type=_finite_float, default=450.0)
    p_ana.add_argument("--auc-lo", type=_finite_float, default=450.0)
    p_ana.add_argument("--auc-hi", type=_finite_float, default=750.0)
    p_ana.add_argument(
        "--pooling", choices=("per-trial", "pooled"), default="per-trial",
        help="normalize each trial by its own max, or all trials by one max",
    )
    p_ana.set_defaults(func=cmd_analyze, parser=p_ana)

    p_rep = sub.add_parser("report", help="summarize a profile.csv")
    p_rep.add_argument("--profile", required=True)
    p_rep.set_defaults(func=cmd_report, parser=p_rep)

    p_svg = sub.add_parser("export-svg", help="render a run or profile to SVG")
    p_svg.add_argument("--run", default=None)
    p_svg.add_argument("--profile", default=None)
    p_svg.add_argument("--out", required=True)
    p_svg.add_argument(
        "--which",
        choices=("spectra", "spectra-smoothed", "profile"),
        required=True,
        help="spectra = as recorded; spectra-smoothed = normalized and smoothed",
    )
    p_svg.set_defaults(func=cmd_export_svg, parser=p_svg)

    return parser


def _default_seed(parser: argparse.ArgumentParser) -> int:
    text = os.environ.get(SEED_ENV_VAR)
    if text is None:
        return 0
    try:
        value = int(text)
    except ValueError:
        parser.error(f"${SEED_ENV_VAR} is not an integer: {text!r}")
    if value < 0:
        parser.error(f"${SEED_ENV_VAR} must be >= 0, got {value}")
    return value


# --- commands ---------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        print(f"error: {out} exists and is not a directory", file=sys.stderr)
        return 1
    if out.is_dir() and any(out.iterdir()) and not args.force:
        print(
            f"error: output directory {out} is not empty (use --force to overwrite)",
            file=sys.stderr,
        )
        return 1

    plan_kwargs = {"trials": args.trials}
    if args.start_deg is not None:
        plan_kwargs["start_deg"] = args.start_deg
    if args.step_deg is not None:
        plan_kwargs["step_deg"] = args.step_deg
    if args.n_steps is not None:
        plan_kwargs["n_steps"] = args.n_steps
    plan = SweepPlan(**plan_kwargs)

    cfg_kwargs = {}
    if args.noise_sigma is not None:
        cfg_kwargs["noise_sigma"] = args.noise_sigma
    if args.kappa is not None:
        cfg_kwargs["kappa"] = args.kappa
    config = OpticalConfig(**cfg_kwargs)

    pivot = PivotGeometry()
    surface: SurfaceModel
    if args.geometry == "convex":
        surface = SphereSurface(radius_mm=args.sphere_radius_mm)
    else:
        surface = FlatSurface()

    def factory(trial: int, seed: int) -> AcquisitionPort:
        return SimulatedPort(config=config, pivot=pivot, surface=surface, seed=seed)

    records = run_triplicate(plan, factory, master_seed=args.seed)
    dataio.write_run(records, out)
    print(f"wrote {out} ({plan.trials} trials x {plan.n_steps} steps)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    records = dataio.read_run(args.run)
    cfg = PipelineConfig(
        norm_cutoff_nm=args.cutoff_nm,
        auc_lo_nm=args.auc_lo,
        auc_hi_nm=args.auc_hi,
    )
    angles = np.asarray(records[0].plan.angles())
    raw = []
    for record in records:
        try:
            raw.append(run_pipeline(record.spectra, cfg))
        except LumispecError as exc:
            # An error about the grid, not one spectrum, names the first step.
            angle = record.plan.angle(exc.row or 0)
            message = f"trial {record.trial_index}, angle {angle:+.1f} deg: {exc}"
            raise type(exc)(message) from exc
    raw = np.asarray(raw)
    bad = np.argwhere(~((raw > 0) & np.isfinite(raw)))
    if bad.size:
        t, step = bad[0]
        raise NonPositiveAucError(
            f"trial {records[t].trial_index}, angle {angles[step]:+.1f} deg: "
            f"raw AUC {raw[t, step]:g} is not positive and finite"
        )
    # Per trial, each trial by its own max (cancelling any per-trial gain);
    # pooled, all trials by one max.
    axis = 1 if args.pooling == "per-trial" else None
    norm = raw / raw.max(axis=axis, keepdims=True)

    mean = norm.mean(axis=0)
    std = norm.std(axis=0)
    # Rescale so the reported mean profile peaks at exactly 1.
    scale = mean.max()
    mean = mean / scale
    std = std / scale

    profile_path = Path(args.run) / dataio.PROFILE_FILE
    dataio.write_profile(profile_path, angles, mean, std, len(records))
    print(f"wrote {profile_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    angles, mean, _std, _n = dataio.read_profile(args.profile)
    profile = auc_profile(mean, angles)
    stats = profile_stats(profile)
    print(
        f"mean={stats.mean_auc:.2f} std={stats.std_auc:.2f} "
        f"span95=±{stats.span95_deg:.1f}deg"
    )
    return 0


def cmd_export_svg(args: argparse.Namespace) -> int:
    if args.which in ("spectra", "spectra-smoothed"):
        records = dataio.read_run(args.run)
        grid = records[0].spectra.wavelengths_nm
        smoothed = args.which == "spectra-smoothed"
        # (trials, steps, samples), averaged over trials.
        stack = np.array([record.spectra.intensities for record in records])
        if smoothed:
            stack = smooth_window2(normalize_above_cutoff(grid, stack))
        series = [(grid, mean) for mean in stack.mean(axis=0)]
        svg = render_line_chart(
            series,
            title=(
                "Normalized smoothed spectra across the sweep (trial average)"
                if smoothed
                else "Emission spectra across the sweep (trial average)"
            ),
            x_label="wavelength (nm)",
            y_label="normalized intensity" if smoothed else "intensity (arb. units)",
            x_range=(400.0, 800.0),
        )
    else:
        angles, mean, _std, _n = dataio.read_profile(args.profile)
        svg = render_line_chart(
            [(angles, mean)],
            title="Normalized AUC vs sweep angle",
            x_label="motor angle (deg)",
            y_label="normalized AUC",
            hline=0.95,
            markers=True,
        )

    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DataIoError(f"cannot write SVG {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return 0


_parser: Optional[argparse.ArgumentParser] = None  # main()'s, built on its first call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
        # Errors in a subcommand's flags print that subcommand's usage line.
        sub = args.parser
        if args.command == "simulate":
            if args.seed is None:
                args.seed = _default_seed(sub)
            if args.geometry == "convex" and args.sphere_radius_mm is None:
                sub.error("--geometry convex requires --sphere-radius-mm")
            if args.geometry == "flat" and args.sphere_radius_mm is not None:
                sub.error("--sphere-radius-mm is only valid with --geometry convex")
        if args.command == "export-svg":
            if args.which == "profile" and args.profile is None:
                sub.error("--which profile requires --profile")
            if args.which != "profile" and args.run is None:
                sub.error(f"--which {args.which} requires --run")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        return args.func(args)
    except (LumispecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
