"""Self-tests of the benchmark: percentile rule, failure counting, self-time
arithmetic, instrumentation and the metric tables.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_if_supported([float(i) for i in range(99)]) is None
    assert run.p90_if_supported([1.0] * 200) is None  # nothing lies beyond a flat tail
    samples = [float(i) for i in range(100)]
    p90 = run.p90_if_supported(samples)
    assert p90 is not None
    assert sum(1 for x in samples if x > p90) >= 10


def test_p90_absent_for_few_samples():
    assert run.p90_if_supported([]) is None
    assert run.p90_if_supported([1.0]) is None
    assert run.p90_if_supported([float(i) for i in range(20)]) is None


# ---------------------------------------------------------------------------
# Failure counting
# ---------------------------------------------------------------------------

BAD_GEVREY = """
[run]
seed = 5
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 6:1.0:0.0
[set]
kind = random
fraction = 0.2
[hypotheses]
gevrey = 1.0, 1.0, 1.0
doubling = estimate
[output]
report = report.json
"""


@pytest.mark.parametrize("kind", ["verify", "certify"])
def test_failed_hypothesis_exits_3_and_counts_as_failed(tmp_path, kind):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BAD_GEVREY, encoding="ascii")
    op = workloads.Op(f"{kind}:bad", kind, [kind, str(cfg)])
    res = run.run_op(op, tmp_path / "out")
    assert not res.ok
    assert res.error.startswith("CheckFailed: exit code 3")

    r = run.Run()
    r.record(res)
    assert r.failures == [f"{kind}:bad: {res.error}"]


def test_changed_output_of_a_repeated_op_counts_as_failed():
    op = workloads.Op("certify:x", "certify")
    r = run.Run()
    first = run.OpResult(op, 0, 1.0, True, digest="a")
    again = run.OpResult(op, 0, 1.0, True, digest="b")
    r.record(first)
    r.record(again)
    assert first.ok and not again.ok
    assert len(r.failures) == 1


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _clock(times):
    it = iter(times)
    lock = threading.Lock()

    def clock():
        with lock:
            return float(next(it))

    return clock


def test_self_time_of_nested_spans():
    t = tracing.Tracer(clock=_clock([0, 2, 5, 6, 7, 10]))
    outer = t.enter("certify.certify_sigma1")
    a = t.enter("geometry.cover_domain")
    t.exit(a)
    b = t.enter("interp.poly_sup_bound")
    t.exit(b)
    t.exit(outer)
    s = tracing.summarize(t.spans())
    assert outer.self_time == 10 - 3 - 1
    assert s.self_by_layer == {"certify": 6.0, "geometry": 3.0, "interp": 1.0}
    assert sum(s.self_by_layer.values()) == outer.duration


def test_recursive_span_counts_once_inclusive():
    t = tracing.Tracer(clock=_clock([0, 1, 3, 4]))
    outer = t.enter("functions.evaluate")
    inner = t.enter("functions.evaluate")
    t.exit(inner)
    t.exit(outer)
    s = tracing.summarize(t.spans())
    assert outer.outermost and not inner.outermost
    assert s.inclusive["functions.evaluate"] == 4.0
    assert s.calls["functions.evaluate"] == 2
    assert s.self_by_layer["functions"] == 4.0


def test_spans_of_another_thread_are_not_children():
    # main: enter 0, exit 5; worker: enter 1, child 2..3, exit 4
    t = tracing.Tracer(clock=_clock([0, 1, 2, 3, 4, 5]))
    outer = t.enter("cli.cmd_sweep")

    def worker():
        row = t.enter("cli.build_hypotheses")
        est = t.enter("functions.estimate_doubling")
        t.exit(est)
        t.exit(row)

    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    t.exit(outer)

    s = tracing.summarize(t.spans())
    assert outer.self_time == 5.0          # the worker's spans are its own roots
    assert s.self_by_layer == {"cli": 5.0 + 2.0, "functions": 1.0}
    threads = {sp.thread for sp in t.spans()}
    assert len(threads) == 2


def test_entry_self_time_is_not_attributed():
    # cli.main 0..10 encloses cmd_certify 1..9, which encloses certify_auto 2..6
    t = tracing.Tracer(clock=_clock([0, 1, 2, 6, 9, 10]))
    main = t.enter("cli.main")
    cmd = t.enter("cli.cmd_certify")
    auto = t.enter("certify.certify_auto")
    t.exit(auto)
    t.exit(cmd)
    t.exit(main)
    s = tracing.summarize(t.spans())
    assert sum(s.self_by_layer.values()) == main.duration   # true by construction
    assert s.attributed == auto.duration == 4.0             # only the named stage counts


def test_exit_out_of_order_is_an_error():
    t = tracing.Tracer(clock=_clock(itertools.count()))
    a = t.enter("cli.main")
    t.enter("cli.build_hypotheses")
    with pytest.raises(RuntimeError):
        t.exit(a)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def test_instrument_wraps_caller_bindings_and_restores():
    import obscert.cli as cli
    import obscert.functions as functions
    import obscert.geometry as geometry

    originals = (cli.estimate_doubling, functions.estimate_doubling, geometry.Domain.distance)
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        assert cli.estimate_doubling is functions.estimate_doubling
        assert cli.estimate_doubling is not originals[0]
        domain = geometry.Domain.box([1.0])
        grid = geometry.Grid(domain, (64,))
        f = functions.TrigSum.of([([1], 1.0, 0.0)], 1)
        cli.estimate_doubling(f, domain, grid)
    finally:
        inst.restore()
    assert (cli.estimate_doubling, functions.estimate_doubling,
            geometry.Domain.distance) == originals
    s = tracing.summarize(tracer.spans(), tracer.counts())
    assert s.calls["functions.estimate_doubling"] == 1
    assert s.counts["functions.evaluate.points"] == 64
    assert s.counts["geometry.distance.points"] == 64 * s.calls["geometry.distance"]


# ---------------------------------------------------------------------------
# Inputs and metric tables
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed(tmp_path):
    def configs(seed, d):
        workloads.build("certify-2d", seed, d)
        return {p.name: p.read_text() for p in sorted(d.glob("*.cfg"))}

    a = configs(3, tmp_path / "a")
    assert a == configs(3, tmp_path / "b")
    assert a != configs(4, tmp_path / "c")


def test_batch_1d_has_over_a_hundred_distinct_problems(tmp_path):
    ops = workloads.build("batch-1d", 1, tmp_path)
    certify = [op for op in ops if op.kind == "certify"]
    assert len(certify) >= 100
    configs = {Path(op.argv[1]).read_text() for op in certify}
    assert len(configs) == len(certify)
    assert sum(op.kind == "study" for op in ops) == workloads.ROUNDS_1D // workloads.STUDY_EVERY
    assert len({op.id for op in ops}) == len(ops)


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_every_layer_metric_names_what_it_moves():
    names = [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names))
    for name, _unit, _better, moves in spec.PER_LAYER:
        assert moves, name
    for name, _unit, _better, bound in spec.END_TO_END:
        assert 0 < bound <= 0.25
