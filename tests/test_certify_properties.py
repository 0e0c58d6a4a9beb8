"""Crash fuzz of the certify layer.

Each example draws a grid (a 256-cell 1D box or torus, or a 48x48 2D box),
a derivative-growth certificate (M, delta, sigma) and either a doubling
certificate (kappa, r0) or a unique-continuation certificate (a, b, r0),
each constant over a wide log range.  `certify_auto` may refuse the
problem, but only with an `ObscertError`; `obscert certify` on the same
problem must end in one of its exit codes.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from obscert.certify import certify_auto
from obscert.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSOUND, main
from obscert.errors import ObscertError
from obscert.functions import DoublingCertificate, GevreyCertificate, TrigSum, UcpCertificate
from obscert.geometry import Domain, Grid, MeasurableSet

GRIDS = {
    "box-1d": (Grid(Domain.box([1.0]), (256,)), TrigSum.sine([1])),
    "torus-1d": (Grid(Domain.torus([1.0]), (256,)), TrigSum.sine([1])),
    "box-2d": (
        Grid(Domain.box([1.0, 1.0]), (48, 48)),
        TrigSum.of([([1, 0], 1.0, 0.0), ([0, 1], 0.6, 0.4)], 2),
    ),
}
SET_BOUNDS = (0.1, 0.6)
SEARCH = 4

# the sine's own Gevrey constants, under which both witnesses pass `verify`
SINE_GEVREY = (1.0, 1.0 / (2.0 * math.pi), 1.0)


def _log_uniform(lo, hi):
    """10^x for x uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


gevreys = st.tuples(
    _log_uniform(0.0, 6.0),
    _log_uniform(-4.0, 4.0),
    st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
)
certificates = st.one_of(
    st.tuples(st.just("doubling"), _log_uniform(math.log10(2.0), 6.0), _log_uniform(-4.0, 0.0)),
    st.tuples(
        st.just("ucp"), _log_uniform(-4.0, 4.0), _log_uniform(-2.0, 3.0), _log_uniform(-4.0, 1.0)
    ),
)

_CONFIG = """
[run]
seed = 1
[domain]
kind = box
extent = 1.0
[grid]
cells = 256
[function]
kind = trig
modes = 1:1.0:0.0
[set]
kind = box
bounds = {lo!r}, {hi!r}
[hypotheses]
gevrey = {gevrey}
{line}
[certify]
search = {search}
"""


def _cli_certify(gevrey, cert) -> int:
    """`obscert certify` on the 1D box with these certificates; its exit code."""
    kind, *values = cert
    text = _CONFIG.format(
        lo=SET_BOUNDS[0], hi=SET_BOUNDS[1], search=SEARCH,
        gevrey=", ".join(repr(v) for v in gevrey),
        line=f"{kind} = " + ", ".join(repr(v) for v in values),
    )
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(["certify", str(cfg), "--output-dir", tmp])
    assert "Traceback" not in sink.getvalue()
    return rc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grid_name=st.sampled_from(sorted(GRIDS)), gevrey=gevreys, cert=certificates)
@example(grid_name="box-1d", gevrey=SINE_GEVREY, cert=("ucp", 1.0, 400.0, 0.5))  # 10^b
@example(grid_name="box-1d", gevrey=SINE_GEVREY, cert=("ucp", 1000.0, 1.0, 0.5))  # e^(a/b)
# e^(a/b) overflows although b^(1/b) brings the threshold back under the cap
@example(grid_name="box-1d", gevrey=SINE_GEVREY, cert=("ucp", 10.0, 0.013, 0.5))
def test_only_obscert_errors_escape_the_certify_layer(grid_name, gevrey, cert):
    grid, f = GRIDS[grid_name]
    mset = MeasurableSet.from_box(grid, [SET_BOUNDS] * grid.dimension)
    kind, *values = cert
    try:
        gc = GevreyCertificate(*gevrey)
        dc = DoublingCertificate(*values) if kind == "doubling" else None
        uc = UcpCertificate(*values) if kind == "ucp" else None
        certify_auto(f, mset, gc, dc=dc, uc=uc, search=SEARCH)
    except ObscertError:
        pass
    if grid_name == "box-1d":
        rc = _cli_certify(gevrey, cert)
        assert rc == EXIT_OK or EXIT_CONFIG <= rc <= EXIT_UNSOUND
