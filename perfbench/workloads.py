"""Seeded inputs for the three workloads.

`build(name, seed, workdir)` writes the config files a workload needs into
`workdir` and returns its op list: one pass over the list is one cycle.
Every random choice comes from `random.Random(seed)`, so the same seed gives
the same configs, the same set seeds and the same eigen-sum families.  The
only program calls made here are the ones the inputs depend on: a
closed-form Gevrey derivation for the explicit sigma > 1 certificates, the
`verify_ucp` probe that fixes the unique-continuation margin, and the random
sets of the eigen-sum study.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

TWO_PI = 2.0 * math.pi

WORKLOADS = ("certify-2d", "sweep-2d", "batch-1d")

# The seed draws phases, Gaussian centres and amplitudes, small polynomial
# perturbations and the random sets; frequencies, widths, sigma and set
# fractions are fixed, so every seed asks for the same kind of work.
TRIG_2D = (((1, 0), 1.0), ((1, 1), 0.5))
TRIG_1D = {"a": ((1, 1.0), (3, 0.5)), "b": ((2, 1.0), (5, 0.6)), "gt1": ((1, 1.0), (2, 0.5)),
           "ucp": ((1, 1.0),)}
POLY_1D = (1.0, -1.0, 0.5, 0.25)

# Unique-continuation margin over the probed minimal `a`, as in the
# soundness battery of the test suite.
UCP_MARGIN = 1.5
UCP_FLOOR_A = 0.05

# batch-1d draws every problem template this many times per cycle (9 x 12 =
# 108 problems), with an eigen-sum study op after every STUDY_EVERY rounds.
ROUNDS_1D = 9
STUDY_EVERY = 3


@dataclass
class Op:
    """One closed-loop operation.

    kind: certify | verify | sweep | study.  For the CLI kinds `argv` holds
    the command and config path (the output directory is added per run);
    for `study` the eigen-sum inputs are in `study`.
    """

    id: str
    kind: str
    argv: list[str] = field(default_factory=list)
    study: dict[str, Any] | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _config(sections: dict[str, dict[str, str]]) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


def _write(workdir: Path, name: str, sections: dict[str, dict[str, str]]) -> str:
    path = workdir / f"{name}.cfg"
    path.write_text(_config(sections), encoding="ascii")
    return str(path)


# ---------------------------------------------------------------------------
# 2D inputs
# ---------------------------------------------------------------------------

def _domain_2d(kind: str) -> dict[str, str]:
    if kind == "disk":
        return {"kind": "disk", "radius": "0.5"}
    return {"kind": kind, "extent": "1.0, 1.0"}


def _trig_2d(rng: random.Random) -> dict[str, str]:
    modes = "; ".join(
        f"{k[0]} {k[1]}:{_fmt(amp)}:{_fmt(rng.uniform(0.0, TWO_PI))}" for k, amp in TRIG_2D
    )
    return {"kind": "trig", "modes": modes}


def _gaussian_2d(rng: random.Random) -> dict[str, str]:
    center = f"{_fmt(rng.uniform(0.4, 0.6))}, {_fmt(rng.uniform(0.4, 0.6))}"
    return {"kind": "gaussian", "center": center, "width": "0.25",
            "amplitude": _fmt(rng.uniform(0.5, 2.0))}


def _certify_2d(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for domain in ("box", "torus", "disk"):
        for model, make in (("trig", _trig_2d), ("gaussian", _gaussian_2d)):
            name = f"{domain}-{model}"
            cfg = _write(workdir, name, {
                "run": {"seed": str(rng.randrange(1 << 30)), "label": name},
                "domain": _domain_2d(domain),
                "grid": {"cells": "512, 512"},
                "function": make(rng),
                "set": {"kind": "random", "fraction": "0.1"},
                "hypotheses": {"gevrey": "auto", "doubling": "estimate"},
                "certify": {"search": "8"},
                "output": {"report": "report.json"},
            })
            ops.append(Op(f"certify:{name}", "certify", ["certify", cfg]))
            ops.append(Op(f"verify:{name}", "verify", ["verify", cfg]))
    return ops


def _sweep_2d(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    base = {
        "run": {"seed": str(rng.randrange(1 << 30)), "label": "sweep-box", "workers": "2"},
        "domain": _domain_2d("box"),
        "grid": {"cells": "512, 512"},
        "function": _trig_2d(rng),
        "set": {"kind": "random", "fraction": "0.1"},
        "hypotheses": {"gevrey": "auto", "doubling": "estimate"},
        "certify": {"search": "4"},
        "output": {"report": "report.json", "sweep_report": "sweep.json", "csv": "sweep.csv"},
    }
    sweeps = []
    for axis, values in (
        ("fraction", "0.2, 0.1, 0.05, 0.025"),
        ("degree", "2, 4, 6, 8"),
        ("mode-scale", "1, 2, 3"),
    ):
        cfg = _write(workdir, f"sweep-{axis}", {**base, "sweep": {"axis": axis, "values": values}})
        sweeps.append(Op(f"sweep:{axis}", "sweep", ["sweep", cfg]))
    # single-row references: the same box config outside the sweep, spread
    # over the cycle so they sample the same stretch of time as the sweeps
    cfg = _write(workdir, "single", base)
    certify = Op("certify:single", "certify", ["certify", cfg])
    verify = Op("verify:single", "verify", ["verify", cfg])
    return [certify, sweeps[0], verify, sweeps[1], certify, sweeps[2], verify]


# ---------------------------------------------------------------------------
# 1D inputs
# ---------------------------------------------------------------------------

def _trig_1d(rng: random.Random, variant: str) -> dict[str, str]:
    modes = "; ".join(f"{k}:{_fmt(amp)}:{_fmt(rng.uniform(0.0, TWO_PI))}"
                      for k, amp in TRIG_1D[variant])
    return {"kind": "trig", "modes": modes}


def _gaussian_1d(rng: random.Random, width: float) -> dict[str, str]:
    return {"kind": "gaussian", "center": _fmt(rng.uniform(0.4, 0.6)), "width": _fmt(width),
            "amplitude": _fmt(rng.uniform(0.5, 2.0))}


def _problems_1d(rng: random.Random) -> list[tuple[str, str, str, float, dict]]:
    """(name, domain kind, branch, set fraction, function sections) per template,
    one fresh draw of each of the twelve 1D problem templates."""
    out = []
    for domain in ("box", "torus"):
        out.append((f"{domain}-trig-a", domain, "sigma1", 0.2, {"function": _trig_1d(rng, "a")}))
        out.append((f"{domain}-trig-b", domain, "sigma1", 0.05, {"function": _trig_1d(rng, "b")}))
        out.append((f"{domain}-trig-gt1", domain, "sigma-gt1", 0.1,
                    {"function": _trig_1d(rng, "gt1")}))
        out.append((f"{domain}-trig-ucp", domain, "ucp", 0.1, {"function": _trig_1d(rng, "ucp")}))
    out.append(("box-gaussian", "box", "sigma1", 0.1, {"function": _gaussian_1d(rng, 0.25)}))
    out.append(("box-gaussian-gt1", "box", "sigma-gt1", 0.1,
                {"function": _gaussian_1d(rng, 0.3)}))
    out.append(("box-product", "box", "sigma1", 0.1, {
        "function": {"kind": "product", "factors": "wave, bump"},
        "wave": {"kind": "trig", "modes": f"2:1.0:{_fmt(rng.uniform(0.0, TWO_PI))}"},
        "bump": _gaussian_1d(rng, 0.3),
    }))
    coeffs = [c + rng.uniform(-0.05, 0.05) for c in POLY_1D]
    out.append(("box-polynomial", "box", "sigma1", 0.1, {
        "function": {"kind": "polynomial", "coeffs": ", ".join(_fmt(c) for c in coeffs)},
    }))
    return out


def _hypotheses_1d(branch: str, sections: dict[str, dict[str, str]],
                   domain_kind: str) -> dict[str, str]:
    if branch == "sigma1":
        return {"gevrey": "auto", "doubling": "estimate"}
    from obscert.cli import RunConfig, build_domain, build_function, build_grid
    from obscert.functions import UcpCertificate, derive_gevrey, verify_ucp

    cp = configparser.ConfigParser()
    cp.read_dict({"domain": {"kind": domain_kind, "extent": "1.0"}, **sections})
    cfg = RunConfig(cp, Path("probe.cfg"), 0, "probe")
    domain = build_domain(cfg)
    grid = build_grid(cfg, domain)
    f = build_function(cfg, domain)
    if branch == "sigma-gt1":
        # k!^1 <= k!^sigma, so the derived certificate stays valid
        gc = derive_gevrey(f, domain, grid)
        sigma = 1.5 if domain_kind == "box" else 2.0
        return {"gevrey": f"{_fmt(gc.M)}, {_fmt(gc.delta)}, {_fmt(sigma)}",
                "doubling": "estimate"}
    probe = verify_ucp(f, UcpCertificate(10.0, 1.0, 0.5), domain, grid)
    a = max(UCP_MARGIN * probe.min_sufficient_a, UCP_FLOOR_A)
    return {"gevrey": "auto", "ucp": f"{_fmt(a)}, 1.0, 0.5"}


def _study_inputs(rng: random.Random, set_seed: int) -> dict[str, Any]:
    import numpy as np
    from obscert.eigensum import build_eigensum
    from obscert.geometry import Domain, Grid, MeasurableSet

    domain = Domain.torus([1.0])
    grid = Grid(domain, (1024,))
    family = []
    for k in range(1, 7):
        modes = [([k], 1.0, rng.uniform(0.0, TWO_PI))]
        if k % 2 == 0:
            # a second mode on the same eigenvalue keeps m = 1
            modes.append(([-k], 0.5, rng.uniform(0.0, TWO_PI)))
        family.append(build_eigensum(modes, 1))
    np_rng = np.random.default_rng(set_seed)
    msets = [MeasurableSet.random(grid, frac, np_rng) for frac in (0.3, 0.1, 0.05)]
    return {"domain": domain, "grid": grid, "family": family, "msets": msets, "search": 2}


def _batch_1d(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for rnd in range(ROUNDS_1D):
        for template, domain, branch, fraction, sections in _problems_1d(rng):
            name = f"r{rnd}-{template}"
            hyp = _hypotheses_1d(branch, sections, domain)
            cfg = _write(workdir, name, {
                "run": {"seed": str(rng.randrange(1 << 30)), "label": name},
                "domain": {"kind": domain, "extent": "1.0"},
                "grid": {"cells": "1024"},
                **sections,
                "set": {"kind": "random", "fraction": _fmt(fraction)},
                "hypotheses": hyp,
                "certify": {"search": "8"},
                "output": {"report": "report.json"},
            })
            ops.append(Op(f"certify:{name}", "certify", ["certify", cfg]))
            ops.append(Op(f"verify:{name}", "verify", ["verify", cfg]))
        if (rnd + 1) % STUDY_EVERY == 0:
            study = _study_inputs(rng, rng.randrange(1 << 30))
            ops.append(Op(f"study:r{rnd}-eigensum", "study", study=study))
    return ops


_GENERATORS = {"certify-2d": _certify_2d, "sweep-2d": _sweep_2d, "batch-1d": _batch_1d}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs into `workdir`; return its op cycle."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[name](seed, workdir)
