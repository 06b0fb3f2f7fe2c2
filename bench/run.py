"""Benchmark of the lumispec chain, end to end and layer by layer.

    python3 bench/run.py --workload cli-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Load comes from this one process and thread in a closed loop: the
next operation starts when the previous one has finished. Operation ``i``
uses seed ``--seed + i`` and flat geometry for even ``i``, convex (sphere
radius 25 mm) for odd ``i``. ``--seconds`` is the time spent inside timed
operations; warm-up and output checks run outside it.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with span wrappers installed (see ``spans.py``) and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give every figure with its
unit and the full record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import checks
import refspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = BENCH / "work"

TRIALS = 3
START_DEG = -18.0
SAMPLES_PER_SPECTRUM = 801
SPHERE_RADIUS_MM = 25.0
SETUP_LAUNCHES = 7
# In-memory operations take ~20 ms; one kernel sample per ~0.25 s of them.
KERNEL_EVERY_OPS = 12
SETUP_CODE = "import lumispec, lumispec.cli; lumispec.cli.build_parser()"


@dataclass(frozen=True)
class Workload:
    name: str
    in_memory: bool
    n_steps: int
    step_deg: float
    warmup_ops: int
    check_every: int  # operations with index % check_every == 0 get the full check
    tail_pct: int  # highest percentile with >= 10 samples beyond it at the baseline

    @property
    def kernel(self) -> str:
        """The calibration kernel that resembles this workload's work."""
        return "array" if self.in_memory else "text"

    @property
    def spectra_per_op(self) -> int:
        return TRIALS * self.n_steps

    @property
    def plan_args(self) -> list[str]:
        return ["--n-steps", str(self.n_steps), "--step-deg", repr(self.step_deg)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-default", False, 21, 1.8, warmup_ops=2, check_every=6, tail_pct=60),
        Workload("cli-wide", False, 61, 0.6, warmup_ops=1, check_every=4, tail_pct=50),
        Workload("seed-study", True, 21, 1.8, warmup_ops=20, check_every=40, tail_pct=99),
    )
}

# Public names each workload calls; a rename shows up here, not as a silent break.
CONTACT_SURFACE = {
    "setup": ["lumispec.cli.build_parser"],
    "golden": [
        "lumispec.cli.main: simulate --geometry --sphere-radius-mm --seed --out",
        "lumispec.cli.main: analyze --run",
        "lumispec.cli.main: report --profile",
        "run directory: meta.txt, manifest.csv, t{trial}_s{step:02}.csv, profile.csv",
    ],
    "cli": [
        "lumispec.cli.main: simulate --geometry --sphere-radius-mm --seed --out --n-steps --step-deg",
        "lumispec.cli.main: analyze --run",
        "lumispec.cli.main: report --profile",
        "lumispec.cli.main: export-svg --run --profile --which spectra|spectra-smoothed|profile --out",
        "run directory: t{trial}_s{step:02}.csv (wavelength_nm,intensity), profile.csv "
        "(angle_deg,auc_norm_mean,auc_norm_std,n_trials)",
    ],
    "seed-study": [
        "lumispec.engine.SweepPlan(start_deg, step_deg, n_steps, trials)",
        "lumispec.engine.SweepPlan.angles",
        "lumispec.engine.SimulatedPort(surface=, seed=)",
        "lumispec.geometry.SphereSurface(radius_mm=)",
        "lumispec.engine.run_triplicate(plan, port_factory, master_seed=)",
        "lumispec.engine.SweepRecord.entries",
        "lumispec.spectral.Spectrum.wavelengths_nm",
        "lumispec.spectral.Spectrum.intensities",
        "lumispec.spectral.run_pipeline",
        "lumispec.spectral.auc_profile",
        "lumispec.spectral.AucProfile.auc_norm",
        "lumispec.spectral.profile_stats",
        "lumispec.spectral.SweepStats.mean_auc/std_auc/span95_deg",
    ],
}

NOT_MEASURED = {
    "calibration": "one-off fit whose output is frozen as optics.DEFAULT_KAPPA; no workload calls it",
    "errors": "exception types only; no operation fails at the measured commit",
}


# --- package access -----------------------------------------------------------

lumispec = None  # the package modules, bound by import_lumispec()


def import_lumispec() -> None:
    """Import the package from the checkout's ``src/``, or exit non-zero."""
    global lumispec
    src = ROOT / "src"
    if not (src / "lumispec" / "__init__.py").is_file():
        raise SystemExit(f"error: no lumispec package under {src}")
    sys.path.insert(0, str(src))
    import lumispec.cli
    import lumispec.dataio
    import lumispec.engine
    import lumispec.geometry
    import lumispec.spectral

    lumispec = sys.modules["lumispec"]


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in-process and return its stdout; a non-zero
    exit code raises CheckFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lumispec.cli.main(argv)
    if rc != 0:
        raise checks.CheckFailed(f"`{argv[0]}` exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``bench/work``, removed on exit."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def trace_points():
    """Where callers look the traced functions up: (module, attr, span, bytes)."""
    cli, dataio = lumispec.cli, lumispec.dataio
    engine, spectral = lumispec.engine, lumispec.spectral
    return [
        (cli, "run_triplicate", "engine.run_triplicate", None),
        (engine, "run_triplicate", "engine.run_triplicate", None),
        (engine, "solve_incidence", "geometry.solve_incidence", None),
        (engine, "synthesize_spectrum", "optics.synthesize_spectrum", None),
        (cli, "run_pipeline", "spectral.run_pipeline", None),
        (spectral, "run_pipeline", "spectral.run_pipeline", None),
        (cli, "auc_profile", "spectral.auc_profile", None),
        (spectral, "auc_profile", "spectral.auc_profile", None),
        (cli, "profile_stats", "spectral.profile_stats", None),
        (spectral, "profile_stats", "spectral.profile_stats", None),
        (cli, "render_line_chart", "charts.render_line_chart", spans.text_size),
        (dataio, "read_run", "dataio.read_run", spans.run_header_size(0)),
        (dataio, "read_spectrum", "dataio.read_spectrum", spans.file_size(0)),
        (dataio, "write_run", "dataio.write_run", spans.run_header_size(1)),
        (dataio, "write_spectrum", "dataio.write_spectrum", spans.file_size(1)),
    ]


# --- one operation -------------------------------------------------------------

class Stages:
    """Timed intervals of one operation, by stage, with timeline positions.

    For CLI operations a kernel sample precedes each long command unless
    ``sample=False`` (the report runs straight after analyze, as in the
    README chain), and each interval is a ``cli.<stage>`` span when traced.
    """

    def __init__(self, timeline: refspeed.Timeline, tracer, cli: bool):
        self.timed: list[tuple[str, float, int]] = []
        self._timeline = timeline
        self._tracer = tracer
        self._cli = cli

    @contextlib.contextmanager
    def __call__(self, name: str, sample: bool = True):
        if self._cli and sample:
            self._timeline.sample()
        scope = (self._tracer.span(f"cli.{name}") if self._cli and self._tracer
                 else contextlib.nullcontext())
        position = self._timeline.position
        start = time.perf_counter()
        try:
            with scope:
                yield
        finally:
            self.timed.append((name, time.perf_counter() - start, position))


def cli_op(wl: Workload, index: int, seed: int, work: Path, full_check: bool,
           stage: Stages):
    """simulate -> analyze -> report -> export-svg x3 -> remove the run."""
    run = work / f"op{index}"
    if index % 2 == 0:
        geometry = ["--geometry", "flat"]
    else:
        geometry = ["--geometry", "convex", "--sphere-radius-mm", repr(SPHERE_RADIUS_MM)]
    profile = str(run / "profile.csv")
    svgs = {w: run / f"{w}.svg" for w in ("spectra", "spectra-smoothed", "profile")}
    try:
        with stage("simulate"):
            cli_call(["simulate", *geometry, "--seed", str(seed), "--out", str(run),
                      *wl.plan_args])
        with stage("analyze"):
            cli_call(["analyze", "--run", str(run)])
        with stage("report", sample=False):
            report = cli_call(["report", "--profile", profile])
        for which in ("spectra", "spectra-smoothed"):
            with stage("export_svg"):
                cli_call(["export-svg", "--run", str(run), "--which", which,
                          "--out", str(svgs[which])])
        with stage("export_svg"):
            cli_call(["export-svg", "--profile", profile, "--which", "profile",
                      "--out", str(svgs["profile"])])
        checks.check_report_format(report)
        if full_check:
            checks.check_run_dir(run, TRIALS, wl.n_steps, START_DEG, wl.step_deg)
            checks.check_report(report, run)
            checks.check_svg(svgs["spectra"], wl.n_steps, 0)
            checks.check_svg(svgs["spectra-smoothed"], wl.n_steps, 0)
            checks.check_svg(svgs["profile"], 1, wl.n_steps)
    finally:
        with stage("cleanup", sample=False):
            shutil.rmtree(run, ignore_errors=True)
    return None


def memory_op(wl: Workload, index: int, seed: int, work: Path, full_check: bool,
              stage: Stages):
    """run_triplicate -> run_pipeline per spectrum -> profiles -> profile_stats."""
    engine, spectral = lumispec.engine, lumispec.spectral
    plan = engine.SweepPlan(start_deg=START_DEG, step_deg=wl.step_deg,
                            n_steps=wl.n_steps, trials=TRIALS)
    angles = plan.angles()
    surface = None if index % 2 == 0 else lumispec.geometry.SphereSurface(radius_mm=SPHERE_RADIUS_MM)

    def factory(_trial, trial_seed):
        return engine.SimulatedPort(surface=surface, seed=trial_seed)

    with stage("simulate"):
        records = engine.run_triplicate(plan, factory, master_seed=seed)
    with stage("analyze"):
        aucs = [[spectral.run_pipeline(s) for _, s in r.entries] for r in records]
        norms = [spectral.auc_profile(row, angles).auc_norm for row in aucs]
        mean = sum(norms) / len(norms)
        mean = mean / mean.max()
    with stage("report"):
        stats = spectral.profile_stats(spectral.auc_profile(mean, angles))
        report = (f"mean={stats.mean_auc:.2f} std={stats.std_auc:.2f} "
                  f"span95=±{stats.span95_deg:.1f}deg\n")
    checks.check_report_format(report)
    if full_check:
        checks.check_seed_study(records, aucs, norms, stats, angles)
    return mean


# --- a run ---------------------------------------------------------------------

class Run:
    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.next_index = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.profiles = {"flat": [], "convex": []}
        self.timeline = refspeed.Timeline(wl.kernel)

    def op(self, tracer=None):
        """One operation; returns its timed stages, or None if it failed."""
        index = self.next_index
        self.next_index += 1
        self.attempted += 1
        if tracer is not None:
            tracer.op = index
        if self.wl.in_memory and index % KERNEL_EVERY_OPS == 0:
            self.timeline.sample()
        stage = Stages(self.timeline, tracer, cli=not self.wl.in_memory)
        body = memory_op if self.wl.in_memory else cli_op
        try:
            profile = body(self.wl, index, self.seed + index, self.work,
                           index % self.wl.check_every == 0, stage)
        except Exception as exc:  # any failure is counted, not fatal
            self.failures.append(f"op {index} (seed {self.seed + index}): "
                                 f"{type(exc).__name__}: {exc}")
            return None
        if profile is not None:
            self.profiles["flat" if index % 2 == 0 else "convex"].append(profile)
        return stage.timed

    def loop(self, seconds: float, tracer=None) -> list[tuple[int, dict, dict]]:
        """Closed loop until the timed operations add up to ``seconds`` of wall
        time. Returns ``(op index, wall s, scaled s)`` per completed operation,
        both by stage."""
        done, timed = [], 0.0
        while timed < seconds:
            index = self.next_index
            result = self.op(tracer)
            if result is not None:
                done.append((index, result))
                timed += sum(s for _, s, _ in result)
            elif not done and self.attempted > 3 * self.wl.warmup_ops + 3:
                break  # every operation fails; do not spin for the whole budget
        self.timeline.sample()  # the right-hand sample of the last intervals
        return [(index, *self.by_stage(timed)) for index, timed in done]

    def by_stage(self, timed) -> tuple[dict[str, float], dict[str, float]]:
        wall: dict[str, float] = {}
        scaled: dict[str, float] = {}
        for name, seconds, position in timed:
            wall[name] = wall.get(name, 0.0) + seconds
            scaled[name] = scaled.get(name, 0.0) + seconds * self.timeline.scale(position)
        return wall, scaled

    def check(self, name: str, fn, *args) -> None:
        """A whole-run check, counted as one attempted item."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def check_grand_spans(self) -> dict:
        """Criterion 3 once the seed study has >= 30 seeds per geometry."""
        n = {g: len(p) for g, p in self.profiles.items()}
        if min(n.values()) < 30:
            return {"seeds": n, "checked": False}
        spectral = lumispec.spectral
        angles = [START_DEG + i * self.wl.step_deg for i in range(self.wl.n_steps)]
        spans95 = {
            g: spectral.profile_stats(spectral.auc_profile(sum(p) / len(p), angles)).span95_deg
            for g, p in self.profiles.items()
        }
        self.check("grand spans", checks.check_grand_spans, spans95["flat"], spans95["convex"])
        return {"seeds": n, "checked": True, "span95_deg": spans95}


def percentile(values: list[float], pct: int) -> float:
    return quantiles(values, n=100, method="inclusive")[pct - 1]


def timing_summary(ops: list[tuple[int, dict, dict]], wl: Workload) -> dict:
    """Chain and stage statistics at reference speed, with the wall figures."""
    stages = [scaled for _, _, scaled in ops]
    chain = [sum(s.values()) * 1000 for s in stages]
    wall = [sum(w.values()) * 1000 for _, w, _ in ops]
    tail = percentile(chain, wl.tail_pct) if len(chain) > 1 else chain[0]
    return {
        "samples": len(chain),
        "chain_ms_p50": median(chain),
        "wall_chain_ms_p50": median(wall),
        "wall_stage_ms_p50": {
            name: median(w[name] * 1000 for _, w, _ in ops) for name in stages[0]
        },
        "speed_scale_p50": median(c / w for c, w in zip(chain, wall)),
        "chain_ms_tail": tail,
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(c > tail for c in chain),
        "spectra_per_s": wl.spectra_per_op * len(chain) / (sum(chain) / 1000),
        "stage_ms_p50": {
            name: median(s[name] * 1000 for s in stages) for name in stages[0]
        },
    }


def measure_setup() -> list[float]:
    """Fresh-interpreter import plus build_parser, in wall seconds per launch.

    One warm-up launch is discarded. Launch time hardly follows the
    calibration kernel (process start and imports are not the Python work it
    models), so it is not scaled to reference speed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       timeout=60, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]


def environment(wl: Workload) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, stdin=subprocess.DEVNULL,
        )
        top, commit = (git.stdout.split() + ["", ""])[:2]
        in_repo = git.returncode == 0 and Path(top).resolve() == ROOT
    except OSError:
        in_repo = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit if in_repo else "unknown (not a git checkout)",
        "run_dir_filesystem": filesystem_of(WORK_DIR),
        "plan": {"trials": TRIALS, "n_steps": wl.n_steps, "step_deg": wl.step_deg,
                 "start_deg": START_DEG, "samples_per_spectrum": SAMPLES_PER_SPECTRUM,
                 "spectra_per_op": wl.spectra_per_op},
    }


def filesystem_of(path: Path) -> str:
    """Type of the mount holding ``path``, from /proc/mounts."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


# --- metrics ---------------------------------------------------------------------

def end_to_end(setup: list[float], timing: dict, peak_rss_mb: float) -> dict:
    """Operation times at reference speed (see refspeed.py); set-up and
    memory as measured."""
    stage = timing["stage_ms_p50"]
    return {
        "setup_s": (median(setup), "s"),
        "chain_ms_p50": (timing["chain_ms_p50"], "ms"),
        "chain_ms_tail": (timing["chain_ms_tail"], "ms"),
        "spectra_per_s": (timing["spectra_per_s"], "1/s"),
        "simulate_ms_p50": (stage["simulate"], "ms"),
        "analyze_ms_p50": (stage["analyze"], "ms"),
        "report_ms_p50": (stage["report"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(summary: dict, wl: Workload, overhead_pct: float) -> dict:
    def get(name, field):
        return summary.get(name, {}).get(field, 0.0)

    read_calls = get("dataio.read_spectrum", "calls")
    return {
        "dataio.read_run.ms": (get("dataio.read_run", "ms"), "ms"),
        "dataio.read_run.calls": (get("dataio.read_run", "calls"), "count"),
        "dataio.read_spectrum.ms": (get("dataio.read_spectrum", "ms"), "ms"),
        "dataio.read_spectrum.calls": (read_calls, "count"),
        "dataio.read_spectrum.calls_per_spectrum": (read_calls / wl.spectra_per_op, "ratio"),
        "dataio.bytes_read": (get("dataio.read_run", "bytes") + get("dataio.read_spectrum", "bytes"), "B"),
        "dataio.write_run.ms": (get("dataio.write_run", "ms"), "ms"),
        "dataio.write_run.self_ms": (get("dataio.write_run", "self_ms"), "ms"),
        "dataio.write_spectrum.ms": (get("dataio.write_spectrum", "ms"), "ms"),
        "dataio.bytes_written": (get("dataio.write_run", "bytes") + get("dataio.write_spectrum", "bytes"), "B"),
        "dataio.files_written": (get("dataio.write_spectrum", "calls") + 2 * get("dataio.write_run", "calls"), "count"),
        "optics.synthesize_spectrum.ms": (get("optics.synthesize_spectrum", "ms"), "ms"),
        "optics.synthesize_spectrum.calls": (get("optics.synthesize_spectrum", "calls"), "count"),
        "engine.run_triplicate.ms": (get("engine.run_triplicate", "ms"), "ms"),
        "engine.run_triplicate.self_ms": (get("engine.run_triplicate", "self_ms"), "ms"),
        "geometry.solve_incidence.ms": (get("geometry.solve_incidence", "ms"), "ms"),
        "geometry.solve_incidence.calls": (get("geometry.solve_incidence", "calls"), "count"),
        "spectral.run_pipeline.ms": (get("spectral.run_pipeline", "ms"), "ms"),
        "spectral.run_pipeline.calls": (get("spectral.run_pipeline", "calls"), "count"),
        "spectral.auc_profile.ms": (get("spectral.auc_profile", "ms"), "ms"),
        "spectral.profile_stats.ms": (get("spectral.profile_stats", "ms"), "ms"),
        "charts.render_line_chart.ms": (get("charts.render_line_chart", "ms"), "ms"),
        "charts.render_line_chart.calls": (get("charts.render_line_chart", "calls"), "count"),
        "charts.svg_bytes": (get("charts.render_line_chart", "bytes"), "B"),
        "cli.simulate.self_ms": (get("cli.simulate", "self_ms"), "ms"),
        "cli.analyze.self_ms": (get("cli.analyze", "self_ms"), "ms"),
        "cli.report.self_ms": (get("cli.report", "self_ms"), "ms"),
        "cli.export_svg.self_ms": (get("cli.export_svg", "self_ms"), "ms"),
        "cli.export_svg.ms": (get("cli.export_svg", "ms"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


# --- entry point -------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lumispec()
    wl = WORKLOADS[args.workload]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 process, 1 thread",
        "time_unit": f"ms at reference speed: wall ms x {refspeed.KERNELS[wl.kernel][1]} / "
                     f"mean ms of the {wl.kernel!r} kernel samples just before and after "
                     "the interval",
        "environment": environment(wl),
        "contact_surface": {k: CONTACT_SURFACE[k] for k in
                            ("setup", "golden", "seed-study" if wl.in_memory else "cli")},
        "layers_not_measured": NOT_MEASURED,
    }
    if args.trace:
        record["contact_surface"]["traced"] = sorted(
            f"{m.__name__}.{attr} -> {name}" for m, attr, name, _ in trace_points()
        )
    setup = [] if args.trace else measure_setup()

    with scratch_dir() as work:
        run = Run(wl, args.seed, work)
        run.check("golden seed-7 runs", checks.check_golden, cli_call, work)
        for _ in range(wl.warmup_ops):
            run.op()
        untraced = run.loop(args.seconds / 2 if args.trace else args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = spans.Tracer()
            with spans.installed(tracer, trace_points()):
                traced = run.loop(args.seconds / 2, tracer)
            tracer.write(WORK_DIR / f"spans-{wl.name}.csv.gz")
        if wl.in_memory:
            record["grand_spans"] = run.check_grand_spans()

    failed = len(run.failures)
    record.update(attempted=run.attempted, failed=failed,
                  failed_frac=failed / run.attempted, failures=run.failures[:20])
    if not untraced or (args.trace and not traced):
        print(json.dumps(record, indent=1))
        print("error: no operation completed", file=sys.stderr)
        return 1

    record["untraced"] = timing_summary(untraced, wl)
    if args.trace:
        record["traced"] = timing_summary(traced, wl)
        overhead = (record["traced"]["chain_ms_p50"] / record["untraced"]["chain_ms_p50"] - 1) * 100
        scale = {index: sum(s.values()) / sum(w.values()) for index, w, s in traced}
        summary = spans.summarize(tracer.per_op(), scale)
        record["traced"]["spans"] = {"count": len(tracer.spans), "by_name": summary}
        metrics = per_layer(summary, wl, overhead)
    else:
        record["setup_s_samples"] = setup
        metrics = end_to_end(setup, record["untraced"], peak_rss_mb)

    print(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name}  {name} = {value:.6g} {unit}")
    print(f"{wl.name}  failed_frac = {record['failed_frac']:.6g} ({failed}/{run.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
