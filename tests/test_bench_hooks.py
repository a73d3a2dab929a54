"""The traced benchmark's hooks still fit the package.

perfbench/layers.py wraps functions and methods by name, in the module
or class that calls them.  A refactor that moves one of them (say, a
method onto a new base class, or a step function out of a pipeline's
namespace) breaks `perfbench/run.py --trace 1`; these tests catch that
in the ordinary test run.
"""

import os

import pytest

from dpchroma import minor_truncated, planar_truncated
from dpchroma.generators import drum_forcing_cover, drum_plane
from test_minor_truncated import double_protection_instance

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    return layers, spans


def test_trace_targets_install_and_uninstall(bench):
    layers, spans = bench
    before = (planar_truncated.PipelineState.__init__, minor_truncated.step_r2)
    rec = spans.SpanRecorder()
    rec.install(layers.trace_targets())
    try:
        assert planar_truncated.PipelineState.__init__ is not before[0]
    finally:
        rec.uninstall()
    assert (planar_truncated.PipelineState.__init__, minor_truncated.step_r2) == before


def test_set_ups_are_counted_under_their_own_pipeline(bench):
    layers, spans = bench
    rec = spans.SpanRecorder()
    rec.install(layers.trace_targets())
    try:
        g, cover, params = double_protection_instance()
        rec.run_op(0, "minor", lambda: minor_truncated.color_minor_truncated(g, cover, params))
        pg = drum_plane()
        cover = drum_forcing_cover(pg)
        rec.run_op(1, "planar", lambda: planar_truncated.color_planar_truncated(pg, cover))
    finally:
        rec.uninstall()
    by_op = {op: {n for n, o in zip(rec.names, rec.ops) if o == op} for op in (0, 1)}
    assert layers.MINOR_INIT in by_op[0] and layers.PLANAR_INIT not in by_op[0]
    assert "minor_truncated.step_r2" in by_op[0] and layers.MINOR_FINISH in by_op[0]
    assert layers.PLANAR_INIT in by_op[1] and "planar_truncated.step_r2" in by_op[1]
    assert rec.counter_totals([1]) == {"planar_truncated.v2_size": 4,
                                       "plane_embed.chords_added": 0}
