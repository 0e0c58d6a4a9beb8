"""obscert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-2d --seed 1 --seconds 30 --trace 0

Runs the workload's op cycle in a closed loop (one client; each op starts
when the previous one returns) through the package's public entry points:
`obscert.cli.main([...])` in process for certify, verify and sweep, and the
`obscert.eigensum` study functions.  A new cycle starts only if, at the mean
cycle time so far, it would end within `--seconds`; an untraced run makes at
least two cycles so repeated ops can be compared byte for byte.

Every op is checked: a non-zero exit code, a missing report, a failed
soundness check, log10 C below log10 of the measured ratio, a sweep row that
is not "ok", or a report that differs from the same op's earlier report
counts the op as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` every op runs untraced and then traced, and the last line carries
the per-layer metrics from the traced runs.  The lines before it give sample
counts, the machine record and the report digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
MIN_UNTRACED_CYCLES = 2
COVERAGE_TOLERANCE = 0.10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def p90_if_supported(samples: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    q = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(1 for x in samples if x > q)
    return q if beyond >= 10 else None


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An op's output broke one of the benchmark's correctness rules."""


@dataclass
class OpResult:
    op: workloads.Op
    pos: int            # position in the cycle
    seconds: float
    ok: bool
    error: str = ""
    rows: int = 0
    log10_c: list[float] = field(default_factory=list)
    digest: str = ""


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(outdir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _load(path: Path) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _check_certify(outdir: Path, res: OpResult) -> None:
    report = outdir / "report.json"
    if not report.is_file():
        raise CheckFailed("report missing")
    d = _load(report)
    if not d["soundness"]["passed"]:
        raise CheckFailed("soundness.passed is false")
    log10_c = d["certificate"]["log10_C"]
    if log10_c < math.log10(d["soundness"]["ratio"]):
        raise CheckFailed(f"log10 C {log10_c} below log10 ratio")
    res.rows, res.log10_c = 1, [log10_c]


def _check_verify(outdir: Path, res: OpResult) -> None:
    report = outdir / "report.json"
    if not report.is_file():
        raise CheckFailed("report missing")
    hyp = _load(report)["hypotheses"]
    if not hyp["gevrey"]["verified"]:
        raise CheckFailed("gevrey certificate not verified")
    if "ucp" in hyp and not hyp["ucp"]["verified"]:
        raise CheckFailed("ucp certificate not verified")


def _check_sweep(outdir: Path, res: OpResult) -> None:
    for name in ("sweep.json", "sweep.csv"):
        if not (outdir / name).is_file():
            raise CheckFailed(f"{name} missing")
    rows = _load(outdir / "sweep.json")["rows"]
    for row in rows:
        if row["status"] != "ok":
            raise CheckFailed(f"sweep row {row['value']}: {row['status']}")
        if row["C_log10"] < math.log10(row["ratio"]):
            raise CheckFailed(f"sweep row {row['value']}: log10 C below log10 ratio")
    res.rows, res.log10_c = len(rows), [row["C_log10"] for row in rows]


_CLI_CHECKS = {"certify": _check_certify, "verify": _check_verify, "sweep": _check_sweep}


def _run_study(study: dict, outdir: Path) -> list[dict]:
    from obscert import eigensum

    family, grid = study["family"], study["grid"]
    c_cal = eigensum.calibrate_gamma(family, study["domain"], grid)
    growth = eigensum.doubling_growth_study(family, study["domain"], grid,
                                            calibration=c_cal, slope_bound=c_cal)
    growth.write_csv(outdir / "growth.csv")
    if growth.flagged:
        raise CheckFailed(f"growth study flagged: slope {growth.slope}")
    return eigensum.eigensum_study_csv(outdir / "study.csv", family, study["msets"], grid,
                                       calibration=c_cal, search=study["search"])


def run_op(op: workloads.Op, outdir: Path, pos: int = 0) -> OpResult:
    """Run one op into a fresh `outdir`, time it, check its outputs."""
    from obscert import cli

    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    sink = io.StringIO()
    rc = 0
    study_rows: list[dict] = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.kind == "study":
                study_rows = _run_study(op.study, outdir)
            else:
                rc = cli.main(op.argv + ["--output-dir", str(outdir)])
    except Exception:  # an escaped exception is a failed op, never a crash of the run
        seconds = time.perf_counter() - t0
        return OpResult(op, pos, seconds, False, traceback.format_exc(limit=3).strip())
    seconds = time.perf_counter() - t0
    res = OpResult(op, pos, seconds, True)
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
        if op.kind == "study":
            expected = len(op.study["family"]) * len(op.study["msets"])
            if len(study_rows) != expected:
                raise CheckFailed(f"{len(study_rows)} study rows, expected {expected}")
            for row in study_rows:
                if row["C_log10"] < math.log10(row["ratio_empirical"]):
                    raise CheckFailed("study row: log10 C below log10 ratio")
            res.rows, res.log10_c = len(study_rows), [r["C_log10"] for r in study_rows]
        else:
            _CLI_CHECKS[op.kind](outdir, res)
    except (CheckFailed, KeyError, ValueError, OSError) as exc:
        res.ok, res.error = False, f"{type(exc).__name__}: {exc}"
    res.digest = _digest(outdir)
    return res


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _setup(workload: str, seed: int, workdir: Path) -> tuple[list[workloads.Op], float]:
    """Import the package and generate the inputs; returns (ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import obscert.cli  # noqa: F401
    import obscert.eigensum  # noqa: F401

    ops = workloads.build(workload, seed, workdir)
    return ops, time.perf_counter() - t0


def _setup_in_fresh_process(workload: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def machine_record(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class Run:
    results: list[OpResult] = field(default_factory=list)
    traced: list[OpResult] = field(default_factory=list)
    cycles: int = 0
    failures: list[str] = field(default_factory=list)
    first_digests: dict[str, str] = field(default_factory=dict)

    def record(self, res: OpResult) -> None:
        """Check the op's output against its first run; log failures."""
        first = self.first_digests.setdefault(res.op.id, res.digest)
        if res.ok and res.digest != first:
            res.ok, res.error = False, "output differs from the first run of the same op"
        if not res.ok:
            self.failures.append(f"{res.op.id}: {res.error}")


def run_cycles(ops, opdir: Path, seconds: float, run: Run, tracer=None):
    """Closed loop over whole cycles.

    A cycle starts only if, at the mean cycle time so far, it would end
    within `seconds`; an untraced run makes at least two cycles, a traced
    one at least one.  With a tracer, every op runs untraced and then
    traced, and the first traced cycle's summary is returned.
    """
    import tracing

    min_cycles = 1 if tracer else MIN_UNTRACED_CYCLES
    first = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if run.cycles >= min_cycles and elapsed + elapsed / run.cycles > seconds:
            break
        for i, op in enumerate(ops):
            res = run_op(op, opdir / str(i), i)
            run.record(res)
            run.results.append(res)
            if tracer is None:
                continue
            inst = tracing.instrument(tracer)
            try:
                tres = run_op(op, opdir / str(i), i)
            finally:
                inst.restore()
            run.record(tres)
            run.traced.append(tres)
        run.cycles += 1
        if tracer is not None and first is None:
            first = tracing.summarize(tracer.spans(), tracer.counts())
    return first


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(run: Run, setup_samples: list[float]) -> tuple[dict, dict]:
    """(metric values, sample counts) for the untraced run."""
    by_kind: dict[str, list[float]] = {}
    by_pos: dict[int, list[float]] = {}
    for res in run.results:
        by_kind.setdefault(res.op.kind, []).append(res.seconds)
        by_pos.setdefault(res.pos, []).append(res.seconds)
    row_kind = "sweep" if "sweep" in by_kind else "certify"
    row_ops = [r for r in run.results if r.op.kind == row_kind]
    log10_cs = [c for r in run.results[: len(by_pos)] for c in r.log10_c]
    values = {
        "setup_s": statistics.median(setup_samples),
        "certify_s_p50": statistics.median(by_kind["certify"]),
        "verify_s_p50": statistics.median(by_kind["verify"]),
        "rows_per_s": sum(r.rows for r in row_ops) / sum(r.seconds for r in row_ops),
        "batch_s": sum(statistics.median(v) for v in by_pos.values()),
        # no certification in the first cycle means failed ops: the run is not correct
        "log10_C_mean": statistics.fmean(log10_cs) if log10_cs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(setup_samples),
        "certify_s_p50": len(by_kind["certify"]),
        "verify_s_p50": len(by_kind["verify"]),
        "rows_per_s": len(row_ops),
        "batch_s": len(run.results),
        "log10_C_mean": len(log10_cs),
        "peak_rss_mb": 1,
    }
    extra = {}
    p90 = p90_if_supported(by_kind["certify"])
    if p90 is not None:
        extra["certify_s_p90"] = (p90, len(by_kind["certify"]))
    if "study" in by_kind:
        extra["study_s_p50"] = (statistics.median(by_kind["study"]), len(by_kind["study"]))
    if "sweep" in by_kind:
        extra["sweep_s_p50"] = (statistics.median(by_kind["sweep"]), len(by_kind["sweep"]))
    return values, {"counts": counts, "extra": extra}


def per_layer_metrics(run: Run, tracer, first) -> dict:
    """Times per cycle over all traced cycles; counts from the first one."""
    import tracing

    total = tracing.summarize(tracer.spans(), tracer.counts())
    traced_s = sum(r.seconds for r in run.traced)
    untraced_s = sum(r.seconds for r in run.results)
    values: dict[str, float] = {}
    for name, _unit, _better, _moves in spec.PER_LAYER:
        if name == "trace.overhead_frac":
            values[name] = traced_s / untraced_s - 1.0
        elif name == "trace.coverage_frac":
            values[name] = total.attributed / traced_s
        elif name.endswith(".self.s"):
            values[name] = total.self_by_layer.get(name.split(".")[0], 0.0) / run.cycles
        elif name.endswith(".s"):
            values[name] = total.inclusive.get(name[:-2], 0.0) / run.cycles
        elif name == "certify.geometry_runs":
            values[name] = first.calls.get("geometry.cover_domain", 0)
        elif name == "certify.FieldCache.builds":
            values[name] = first.calls.get("certify.FieldCache.build", 0)
        elif name.endswith(".calls"):
            values[name] = first.calls.get(name[: -len(".calls")], 0)
        else:
            values[name] = first.counts.get(name, 0)
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "obscert" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        _, seconds = _setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(seconds))
        return 0

    workdir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


def _fmt_value(v: float) -> str:
    return f"{v:.6g}"


def _main(args: argparse.Namespace, workdir: Path) -> int:
    ops, first_setup = _setup(args.workload, args.seed, workdir / "inputs")
    machine = machine_record(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops per cycle {len(ops)}")
    print("machine " + json.dumps(machine, sort_keys=True))

    run = Run()
    opdir = workdir / "ops"
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        first = run_cycles(ops, opdir, args.seconds, run, tracer)
        values = per_layer_metrics(run, tracer, first)
        units = {n: u for n, u, _, _ in spec.PER_LAYER}
        for name in units:
            print(f"  {name:38s} {_fmt_value(values[name]):>12s} {units[name]}")
        print(f"  traced cycles {run.cycles}; times are seconds per cycle, "
              f"counts are from the first cycle")
        attempts = run.results + run.traced
        coverage = values["trace.coverage_frac"]
        if args.workload != "sweep-2d" and coverage < 1.0 - COVERAGE_TOLERANCE:
            run.failures.append(f"trace coverage {coverage:.3f}: more than "
                                f"{COVERAGE_TOLERANCE:.0%} of the traced op time is "
                                f"outside the named stages")
    else:
        setup_samples = [first_setup] + [
            _setup_in_fresh_process(args.workload, args.seed, workdir / f"probe{i}")
            for i in range(1, SETUP_SAMPLES)
        ]
        run_cycles(ops, opdir, args.seconds, run)
        values, info = end_to_end_metrics(run, setup_samples)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        for name in units:
            print(f"  {name:16s} {_fmt_value(values[name]):>12s} {units[name]:6s} "
                  f"n={info['counts'][name]}")
        for name, (value, n) in info["extra"].items():
            print(f"  {name:16s} {_fmt_value(value):>12s} s      n={n}")
        attempts = run.results

    failed = sum(1 for r in attempts if not r.ok)
    digest = hashlib.sha256("".join(
        f"{op.id}\0{run.first_digests.get(op.id, '')}\n" for op in ops).encode()).hexdigest()
    print(f"  fail_frac        {failed / len(attempts):.6g} ({failed}/{len(attempts)})")
    print(f"  cycles {run.cycles}  digest {args.workload} sha256 {digest}")
    for line in run.failures[:20]:
        print(f"  FAILED {line}")

    result = {
        "correct": not run.failures,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
