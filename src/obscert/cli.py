"""Batch front end: run configurations, commands, reports and CSV emission.

Configuration is a single sectioned key=value file; the only positional
pieces on the command line are the command name and the config path, plus
--output-dir and --seed overrides, so batch runs stay reproducible.  `audit`
takes a written certify report instead and replays its trace.  Reports
are sorted-key JSON with no wall-clock content; two runs with the same seed
produce byte-identical files.  Randomised masks come from a named, versioned
generator recorded in the report.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .certify import audit_trace, certify_auto, empirical_ratio, soundness_check
from .errors import (
    ConfigError,
    HypothesisError,
    InfeasibleError,
    ObscertError,
    ResolutionError,
    SoundnessError,
)
from .functions import (
    DoublingCertificate,
    FunctionModel,
    Gaussian,
    GevreyCertificate,
    Polynomial1D,
    Product,
    TrigSum,
    UcpCertificate,
    default_radii,
    derive_gevrey,
    estimate_doubling,
    verify_gevrey,
    verify_ucp,
)
from .geometry import (
    Ball,
    Domain,
    Grid,
    MeasurableSet,
    attach_mask,
    read_mask_raster,
    write_mask_raster,
)
from .logspace import log10_of

GENERATOR_NAME = "numpy-pcg64-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_INFEASIBLE = 4
EXIT_UNSOUND = 5


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a number list, got {text!r}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected an integer list, got {text!r}") from exc


@dataclass
class RunConfig:
    parser: configparser.ConfigParser
    path: Path
    seed: int
    label: str

    @staticmethod
    def load(path) -> "RunConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            cp.read(path)
            seed = cp.getint("run", "seed", fallback=0)
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"malformed configuration: {exc}") from exc
        label = cp.get("run", "label", fallback=path.stem)
        return RunConfig(cp, path, seed, label)

    def get(self, section: str, key: str, fallback=None) -> str | None:
        return self.parser.get(section, key, fallback=fallback)

    def section(self, name: str) -> dict[str, str]:
        if not self.parser.has_section(name):
            raise ConfigError(f"missing [{name}] section")
        return dict(self.parser.items(name))

    def get_int(self, section: str, key: str, default: int) -> int:
        raw = self.parser.get(section, key, fallback=None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from exc


def build_domain(cfg: RunConfig) -> Domain:
    sec = cfg.section("domain")
    kind = sec.get("kind", "box")
    if kind == "disk":
        if "radius" not in sec:
            raise ConfigError("disk domain needs radius")
        try:
            return Domain.disk(float(sec["radius"]))
        except ValueError as exc:
            raise ConfigError(f"malformed disk radius: {exc}") from exc
    extent = _floats(sec.get("extent", "1.0"))
    if kind == "box":
        return Domain.box(extent)
    if kind == "torus":
        return Domain.torus(extent)
    raise ConfigError(f"unknown domain kind {kind!r}")


def build_grid(cfg: RunConfig, domain: Domain) -> Grid:
    cells = cfg.get("grid", "cells")
    if cells is None:
        return Grid.default(domain)
    return Grid(domain, tuple(_ints(cells)))


def _parse_trig_modes(text: str, dimension: int) -> TrigSum:
    modes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"mode {chunk!r} must be freq:amplitude:phase")
        try:
            freq = [int(v) for v in parts[0].split()]
            modes.append((freq, float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ConfigError(f"malformed mode {chunk!r}") from exc
    return TrigSum.of(modes, dimension)


def _build_function_from(sec: dict[str, str], cfg: RunConfig, domain: Domain) -> FunctionModel:
    kind = sec.get("kind", "trig")
    if kind == "trig":
        if "modes" not in sec:
            raise ConfigError("trig function needs modes")
        return _parse_trig_modes(sec["modes"], domain.dimension)
    if kind == "gaussian":
        center = _floats(sec.get("center", ""))
        if len(center) != domain.dimension:
            raise ConfigError("gaussian centre must match the domain dimension")
        try:
            return Gaussian(tuple(center), float(sec.get("width", "0.2")),
                            float(sec.get("amplitude", "1.0")))
        except ValueError as exc:
            raise ConfigError(f"malformed gaussian parameter: {exc}") from exc
    if kind == "polynomial":
        if domain.dimension != 1:
            raise ConfigError("polynomial models are one-dimensional")
        return Polynomial1D(tuple(_floats(sec.get("coeffs", "1.0"))))
    if kind == "product":
        names = [v.strip() for v in sec.get("factors", "").split(",") if v.strip()]
        if len(names) != 2:
            raise ConfigError("product needs exactly two factor sections")
        return Product(
            _build_function_from(cfg.section(names[0]), cfg, domain),
            _build_function_from(cfg.section(names[1]), cfg, domain),
        )
    raise ConfigError(f"unknown function kind {kind!r}")


def build_function(cfg: RunConfig, domain: Domain) -> FunctionModel:
    return _build_function_from(cfg.section("function"), cfg, domain)


def build_set(cfg: RunConfig, grid: Grid, rng: np.random.Generator) -> MeasurableSet:
    sec = cfg.section("set")
    kind = sec.get("kind", "random")
    try:
        if kind == "random":
            return MeasurableSet.random(grid, float(sec.get("fraction", "0.2")), rng)
        if kind == "stride":
            return MeasurableSet.strided(grid, int(sec.get("stride", "4")))
    except ValueError as exc:
        raise ConfigError(f"malformed [set] value: {exc}") from exc
    if kind == "full":
        return MeasurableSet.full(grid)
    if kind == "box":
        bounds = []
        for axis_part in sec.get("bounds", "").split(";"):
            vals = _floats(axis_part)
            if len(vals) != 2:
                raise ConfigError("box bounds need lo, hi per axis")
            bounds.append((vals[0], vals[1]))
        if len(bounds) != grid.dimension:
            raise ConfigError("bounds must cover every axis")
        return MeasurableSet.from_box(grid, bounds)
    if kind == "ball":
        center = _floats(sec.get("center", ""))
        try:
            radius = float(sec.get("radius", "0.1"))
        except ValueError as exc:
            raise ConfigError(f"malformed ball radius: {exc}") from exc
        return MeasurableSet.from_ball(grid, Ball.at(center, radius))
    if kind == "mask":
        cells, h, mask = read_mask_raster(cfg.path.parent / sec["file"])
        return attach_mask(grid, cells, h, mask)
    raise ConfigError(f"unknown set kind {kind!r}")


@dataclass
class Hypotheses:
    gevrey: GevreyCertificate
    gevrey_report: Any
    doubling: DoublingCertificate | None = None
    doubling_report: Any = None
    ucp: UcpCertificate | None = None
    ucp_report: Any = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "gevrey": {
                "M": self.gevrey.M,
                "delta": self.gevrey.delta,
                "sigma": self.gevrey.sigma,
                "verified": bool(self.gevrey_report.passed),
                "max_ratio": self.gevrey_report.max_ratio,
                "worst_k": self.gevrey_report.worst_k,
            }
        }
        if self.doubling is not None:
            out["doubling"] = {
                "kappa": self.doubling.kappa,
                "r0": self.doubling.r0,
                "kappa_hat": self.doubling_report.kappa_hat,
            }
        if self.ucp is not None:
            out["ucp"] = {
                "a": self.ucp.a,
                "b": self.ucp.b,
                "r0": self.ucp.r0,
                "verified": bool(self.ucp_report.passed),
                "min_sufficient_a": self.ucp_report.min_sufficient_a,
            }
        return out


def build_hypotheses(cfg: RunConfig, f: FunctionModel, domain: Domain, grid: Grid) -> Hypotheses:
    sec = cfg.section("hypotheses") if cfg.parser.has_section("hypotheses") else {}
    gtext = sec.get("gevrey", "auto")
    if gtext.strip() == "auto":
        gc = derive_gevrey(f, domain, grid)
    else:
        vals = _floats(gtext)
        if len(vals) != 3:
            raise ConfigError("gevrey = M, delta, sigma")
        gc = GevreyCertificate(*vals)
    grep = verify_gevrey(f, gc, domain, grid)
    if not grep.passed:
        raise HypothesisError(
            f"derivative-growth certificate fails at order {grep.worst_k}: "
            f"ratio {grep.max_ratio:.6g} > M {gc.M:.6g} "
            f"(witness point {np.asarray(grep.worst_point).tolist()})"
        )
    hyp = Hypotheses(gevrey=gc, gevrey_report=grep)

    dtext = sec.get("doubling")
    if dtext is not None:
        if dtext.strip() == "estimate":
            hyp.doubling, hyp.doubling_report = estimate_doubling(f, domain, grid)
        else:
            vals = _floats(dtext)
            if len(vals) != 2:
                raise ConfigError("doubling = kappa, r0")
            dc = DoublingCertificate(*vals)
            _, rep = estimate_doubling(f, domain, grid, radii=default_radii(domain, dc.r0))
            if rep.kappa_hat > dc.kappa * (1 + 1e-9):
                raise HypothesisError(
                    f"doubling certificate fails: sampled ratio {rep.kappa_hat:.6g} "
                    f"exceeds kappa {dc.kappa:.6g} at centre "
                    f"{np.asarray(rep.worst.center).tolist()} radius {rep.worst.radius:.6g}"
                )
            hyp.doubling, hyp.doubling_report = dc, rep
    utext = sec.get("ucp")
    if utext is not None:
        vals = _floats(utext)
        if len(vals) != 3:
            raise ConfigError("ucp = a, b, r0")
        uc = UcpCertificate(*vals)
        urep = verify_ucp(f, uc, domain, grid)
        if not urep.passed:
            raise HypothesisError(
                f"unique-continuation certificate fails: minimal sufficient "
                f"a is {urep.min_sufficient_a:.6g} > {uc.a:.6g}"
            )
        hyp.ucp, hyp.ucp_report = uc, urep
    return hyp


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    payload: dict[str, Any]
    runtime_seconds: float = 0.0
    rows: list[dict[str, Any]] = field(default_factory=list)

    def write(self, path: Path) -> None:
        """Serialised without wall-clock content so reruns are byte-identical."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _describe(
    cfg: RunConfig, domain: Domain, grid: Grid, mset: MeasurableSet | None = None
) -> dict[str, Any]:
    """The run's header; the set block only when one set serves the run."""
    out: dict[str, Any] = {
        "label": cfg.label,
        "seed": cfg.seed,
        "generator": GENERATOR_NAME,
        "domain": {"kind": domain.kind, "extent": list(domain.extent)},
        "grid": {"cells": list(grid.cells), "h": grid.h},
    }
    if mset is not None:
        out["set"] = {
            "cells": mset.cell_count,
            "measure": mset.measure,
            "fraction": mset.fraction,
        }
    return out


def _soundness_summary(cert, ratio) -> dict[str, Any]:
    res = soundness_check(cert, ratio)
    return {
        "passed": bool(res.passed),
        "slack_log10": log10_of(res.slack_log),
        "ratio": ratio.ratio,
        "sup_domain": ratio.sup_domain,
        "sup_set": ratio.sup_set,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_certify(cfg: RunConfig, out_dir: Path) -> Report:
    """Verify hypotheses, certify, run the soundness oracle, write a report."""
    t0 = time.monotonic()
    domain = build_domain(cfg)
    grid = build_grid(cfg, domain)
    f = build_function(cfg, domain)
    rng = np.random.default_rng(cfg.seed)
    mset = build_set(cfg, grid, rng)
    hyp = build_hypotheses(cfg, f, domain, grid)

    branch = cfg.get("certify", "branch", fallback="auto")
    search = cfg.get_int("certify", "search", 16)
    cert = certify_auto(
        f, mset, hyp.gevrey, dc=hyp.doubling, uc=hyp.ucp, branch=branch, search=search
    )
    ratio = empirical_ratio(f, mset)
    sound = _soundness_summary(cert, ratio)

    payload = _describe(cfg, domain, grid, mset)
    payload.update(
        {
            "command": "certify",
            "hypotheses": hyp.to_dict(),
            "certificate": cert.to_dict(),
            "soundness": sound,
        }
    )
    report = Report(payload, runtime_seconds=time.monotonic() - t0)
    report.write(out_dir / cfg.get("output", "report", fallback="report.json"))
    mask_out = cfg.get("output", "mask_out", fallback=None)
    if mask_out:
        write_mask_raster(out_dir / mask_out, mset)
    if not sound["passed"]:
        raise SoundnessError(
            f"certified constant 10^{cert.log10_constant:.3f} is below the "
            f"empirical ratio {ratio.ratio:.6g}"
        )
    return report


def cmd_verify(cfg: RunConfig, out_dir: Path) -> Report:
    """Run only the hypothesis checks named in the configuration."""
    t0 = time.monotonic()
    domain = build_domain(cfg)
    grid = build_grid(cfg, domain)
    f = build_function(cfg, domain)
    rng = np.random.default_rng(cfg.seed)
    mset = build_set(cfg, grid, rng) if cfg.parser.has_section("set") else MeasurableSet.full(grid)
    hyp = build_hypotheses(cfg, f, domain, grid)

    payload = _describe(cfg, domain, grid, mset)
    payload.update({"command": "verify", "hypotheses": hyp.to_dict()})
    report = Report(payload, runtime_seconds=time.monotonic() - t0)
    report.write(out_dir / cfg.get("output", "report", fallback="report.json"))
    return report


def cmd_audit(path: Path) -> Report:
    """Replay the trace of a written certify report through the step table."""
    t0 = time.monotonic()
    try:
        payload = json.loads(path.read_text(encoding="ascii"))
        certificate = payload["certificate"]
        trace, log10_c = certificate["trace"], float(certificate["log10_C"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a readable certify report: {exc!r}") from exc
    if not isinstance(trace, list):
        raise ConfigError(f"{path} holds no certificate trace")
    audit_trace(trace, log10_c)
    return Report(payload, runtime_seconds=time.monotonic() - t0)


def _sweep_values(cfg: RunConfig) -> tuple[str, list[float]]:
    sec = cfg.section("sweep")
    axis = sec.get("axis", "")
    if axis not in ("fraction", "degree", "mode-scale"):
        raise ConfigError("sweep axis must be fraction, degree or mode-scale")
    values = _floats(sec.get("values", ""))
    if not values:
        raise ConfigError("sweep needs at least one value")
    return axis, values


def _scaled_modes(f: FunctionModel, scale: int) -> FunctionModel:
    if not isinstance(f, TrigSum):
        raise ConfigError("mode-scale sweeps need a trigonometric function")
    return TrigSum.of(
        [(tuple(k * scale for k in m.freq), m.amplitude, m.phase) for m in f.modes],
        f.dimension,
    )


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> Report:
    """One certification per sweep value; per-row failures do not stop the run.

    Rows run concurrently up to the configured worker count; collection is
    ordered by sweep value, so the report does not depend on scheduling.
    """
    t0 = time.monotonic()
    domain = build_domain(cfg)
    grid = build_grid(cfg, domain)
    base_f = build_function(cfg, domain)
    axis, values = _sweep_values(cfg)
    branch = cfg.get("certify", "branch", fallback="auto")
    search = cfg.get_int("sweep", "search", cfg.get_int("certify", "search", 8))
    workers = cfg.get_int("run", "workers", 1)

    # one fixed permutation for all fraction rows, so the sets nest and the
    # empirical ratio column is monotone
    perm = np.random.default_rng(cfg.seed).permutation(np.flatnonzero(grid.interior.ravel()))

    # f is the same on every fraction and degree row, so those rows share one
    # set of hypotheses, and its failure is every row's failure
    shared: Hypotheses | ObscertError | None = None
    if axis != "mode-scale":
        try:
            shared = build_hypotheses(cfg, base_f, domain, grid)
        except ObscertError as exc:
            shared = exc

    def run_row(value: float) -> dict[str, Any]:
        row: dict[str, Any] = {"axis": axis, "value": value}
        try:
            f = base_f
            if axis == "mode-scale":
                f = _scaled_modes(base_f, int(value))
            if axis == "fraction":
                mset = MeasurableSet.nested_random(grid, value, perm)
            else:
                mset = build_set(cfg, grid, np.random.default_rng(cfg.seed))
            if isinstance(shared, ObscertError):
                raise shared
            hyp = shared if shared is not None else build_hypotheses(cfg, f, domain, grid)
            pinned = None
            if axis == "degree":
                if hyp.ucp is not None:
                    raise ConfigError("degree sweeps apply to the doubling branches only")
                if hyp.doubling is None:
                    raise ConfigError("degree sweeps need a doubling certificate")
                pinned = int(value)
            cert = certify_auto(
                f, mset, hyp.gevrey, dc=hyp.doubling, uc=hyp.ucp, branch=branch,
                search=search if pinned is None else 0, n_override=pinned,
            )
            ratio = empirical_ratio(f, mset)
            sound = soundness_check(cert, ratio)
            row.update(
                {
                    "C_log10": cert.log10_constant,
                    "C": _finite(cert.constant),
                    "ratio": ratio.ratio,
                    "slack_log10": log10_of(sound.slack_log),
                    "n": cert.n,
                    "r": cert.r,
                    "branch": cert.branch,
                    "status": "ok" if sound.passed else "unsound",
                }
            )
        except ObscertError as exc:
            row.update({"status": f"error: {exc}"})
        return row

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_row, values))
    else:
        rows = [run_row(v) for v in values]

    payload = _describe(cfg, domain, grid)
    payload.update({"command": "sweep", "rows": rows})
    report = Report(payload, runtime_seconds=time.monotonic() - t0, rows=rows)
    report.write(out_dir / cfg.get("output", "sweep_report", fallback="sweep.json"))
    csv_path = out_dir / cfg.get("output", "csv", fallback="sweep.csv")
    _write_sweep_csv(csv_path, rows)
    return report


CSV_COLUMNS = ["axis", "value", "C_log10", "C", "ratio", "slack_log10", "n", "r", "branch", "status"]


def _write_sweep_csv(path: Path, rows: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, restval="", extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key, val in out.items():
                if isinstance(val, float):
                    out[key] = repr(val)
            writer.writerow(out)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="obscert",
        description="certified sup-norm observability constants on measurable sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("certify", "verify hypotheses, certify, check soundness"),
        ("sweep", "one certification per sweep value, with CSV output"),
        ("verify", "run only the hypothesis checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the run configuration")
        p.add_argument("--output-dir", default=".", help="directory for reports")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("audit", help="replay a certify report's trace").add_argument(
        "report", help="path to a certify report"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "audit":
            report = cmd_audit(Path(args.report))
        else:
            cfg = RunConfig.load(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            command = {"certify": cmd_certify, "sweep": cmd_sweep, "verify": cmd_verify}
            report = command[args.command](cfg, Path(args.output_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InfeasibleError, ResolutionError) as exc:
        print(f"certification infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SoundnessError as exc:
        print(f"soundness failure: {exc}", file=sys.stderr)
        return EXIT_UNSOUND

    print(f"{args.command}: ok ({report.runtime_seconds:.2f}s)")
    if args.command == "sweep":
        bad = [r for r in report.rows if r.get("status") != "ok"]
        print(f"rows: {len(report.rows)}, failed: {len(bad)}")
        if bad:
            return EXIT_UNSOUND if any("unsound" in r["status"] for r in bad) else EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
