"""The benchmark's metric and workload definitions.

`BENCHMARK.json` at the repository root is generated from these tables by
`python3 perfbench/spec.py`; a self-test keeps the two equal.  The `moves`
entry of a layer metric names the end-to-end metric and workload it should
move, which is the prediction a change to that layer is checked against.
"""

from __future__ import annotations

import json

WORKLOADS = [
    ("certify-2d",
     "512^2 certify+verify on box, torus, disk x trig, Gaussian: full-grid |f| and distance "
     "fields dominate; verify ops use hypotheses without the certify layer"),
    ("sweep-2d",
     "fraction, degree and mode-scale sweeps on a 512^2 box with 2 workers: the only thread "
     "pool, rows that share hypotheses and rows that must not"),
    ("batch-1d",
     "108 seeded 1D box/torus problems over sigma=1, sigma>1 and UCP plus 3 eigen-sum "
     "studies: cache-resident, per-call overhead dominates; the only user of eigensum"),
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("certify_s_p50", "s", "lower", 0.25),
    ("verify_s_p50", "s", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("batch_s", "s", "lower", 0.25),
    ("log10_C_mean", "log10", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_C2 = "certify_s_p50, verify_s_p50 on certify-2d; rows_per_s on sweep-2d"

# name, unit, better, what it should move
PER_LAYER = [
    ("functions.estimate_doubling.s", "s", "lower", _C2),
    ("functions.verify_gevrey.s", "s", "lower", _C2),
    ("functions.derive_gevrey.s", "s", "lower", _C2),
    ("functions.verify_ucp.s", "s", "lower",
     "verify_s_p50, certify_s_p50 on batch-1d (UCP problems)"),
    ("functions.sup_norm.s", "s", "lower", _C2),
    ("functions.sup_norm.calls", "count", "lower", _C2),
    ("functions.evaluate.points", "count", "lower", _C2),
    ("functions.evaluate.s", "s", "lower", _C2),
    ("functions.self.s", "s", "lower", _C2),
    ("geometry.distance.points", "count", "lower",
     "certify_s_p50 and peak_rss_mb on certify-2d"),
    ("geometry.distance.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.densest_ball.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.densest_ball.point_tests", "count", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.cover_domain.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.cover_domain.balls", "count", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.best_ray_interval.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.restrict_to_segment.s", "s", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("geometry.restrict_to_segment.calls", "count", "lower",
     "certify_s_p50 on certify-2d and batch-1d"),
    ("geometry.chain_of_balls.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.set_build.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("geometry.self.s", "s", "lower", "certify_s_p50 on certify-2d"),
    ("certify.certify_auto.s", "s", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("certify.self.s", "s", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("certify.geometry_runs", "count", "lower",
     "certify_s_p50 on certify-2d and batch-1d; bounds log10_C_mean"),
    ("certify.FieldCache.builds", "count", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("certify.FieldCache.sup_ball.calls", "count", "lower",
     "certify_s_p50 on certify-2d and batch-1d"),
    ("certify.FieldCache.sup_ball.s", "s", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("certify.empirical_ratio.s", "s", "lower", "certify_s_p50 on certify-2d and batch-1d"),
    ("interp.separate_points.s", "s", "lower", "certify_s_p50 on batch-1d"),
    ("interp.poly_sup_bound.s", "s", "lower", "certify_s_p50 on batch-1d"),
    ("interp.remainder_bound.s", "s", "lower", "certify_s_p50 on batch-1d"),
    ("interp.self.s", "s", "lower", "certify_s_p50 on batch-1d"),
    ("cli.build_hypotheses.calls", "count", "lower",
     "rows_per_s on sweep-2d; 1 per op on certify-2d, where no change is predicted"),
    ("cli.build_hypotheses.s", "s", "lower", "rows_per_s on sweep-2d"),
    ("cli.report_write.s", "s", "lower", "batch_s on batch-1d"),
    ("cli.self.s", "s", "lower", "batch_s on batch-1d"),
    ("eigensum.doubling_growth_study.s", "s", "lower", "batch_s on batch-1d (study ops)"),
    ("eigensum.eigensum_study_csv.s", "s", "lower", "batch_s on batch-1d (study ops)"),
    ("eigensum.certify_eigensum.s", "s", "lower", "batch_s on batch-1d (study ops)"),
    ("eigensum.self.s", "s", "lower", "batch_s on batch-1d (study ops)"),
    ("trace.overhead_frac", "frac", "lower", "none: traced over untraced op time, minus 1"),
    ("trace.coverage_frac", "frac", "higher",
     "none: self time of non-entry spans over traced op wall time"),
]

RUN_SECONDS = 40


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
