"""QuantileSketch properties: the rules the sharded merge and the obs rows lean on.

The sharded engine (``repro.scale.shard``) measures per-(region,
procedure) latency in each worker and merges the sketches in the
coordinator; obs snapshots ship the same sketch as a JSON row.  A
quantile table must therefore be a function of the multiset of
observations alone.  Properties over positive floats spanning
1e-7..1e2, with duplicates and zeros:

* ``merge(h(a), h(b)) == h(a + b)`` bit for bit, and the merge stays
  observable;
* a permutation of the input and a merge of merges change nothing;
* quantiles are monotone in q and inside [min, max];
* every quantile is within ALPHA relative of the exact rank quantile;
* the JSON row and the pickle round-trip.
"""

import json
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.monitor import ALPHA, QuantileSketch
from tests.sim import test_monitor

Q_GRID = sorted([i / 20 for i in range(21)] + [0.99, 0.999])

_VALUE = st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=1e2))
# draw from a small pool so streams carry heavy duplicates
samples = st.lists(_VALUE, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=120)
)


def h(values, name="s"):
    sketch = QuantileSketch(name)
    for v in values:
        sketch.observe(v)
    return sketch


def state(sketch):
    """Everything that must not depend on order or merge tree."""
    return (
        sketch.count, sketch.min, sketch.max, sketch.zero,
        sorted(sketch.bins.items()),
        [sketch.quantile(q) for q in Q_GRID],
    )


@settings(deadline=None)
@given(samples, samples, samples)
def test_merge_equals_single_stream_exactly(a, b, c):
    merged = QuantileSketch.merge([h(a), h(b)])
    assert state(merged) == state(h(a + b))
    # a merged sketch is a live sketch: observing into it stays exact
    for v in c:
        merged.observe(v)
    assert state(merged) == state(h(a + b + c))


@settings(deadline=None)
@given(samples, st.randoms(use_true_random=False))
def test_merge_is_input_order_independent(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert state(h(shuffled)) == state(h(values))
    parts = [values[i::3] for i in range(3)]
    forward = QuantileSketch.merge([h(p) for p in parts])
    backward = QuantileSketch.merge([h(p) for p in reversed(parts)])
    assert state(forward) == state(backward) == state(h(values))


@settings(deadline=None)
@given(samples, samples, samples, samples)
def test_merge_of_merges_equals_the_flat_merge(a, b, c, d):
    tree = QuantileSketch.merge([
        QuantileSketch.merge([h(a), h(b)]),
        QuantileSketch.merge([h(c), QuantileSketch.merge([h(d)])]),
    ])
    assert state(tree) == state(QuantileSketch.merge([h(a), h(b), h(c), h(d)]))


@settings(deadline=None)
@given(samples)
@example(test_monitor.TestQuantileMonotonicity.CROSSING_STREAM)
def test_quantiles_are_monotone_and_inside_the_range(values):
    sketch = h(values)
    reads = [sketch.quantile(q) for q in Q_GRID]
    if not values:
        assert reads == [None] * len(Q_GRID)
        return
    assert reads == sorted(reads)
    assert min(values) <= reads[0] and reads[-1] <= max(values)


@settings(deadline=None)
@given(samples)
@example(test_monitor.TestQuantileMonotonicity.CROSSING_STREAM)
def test_every_quantile_is_within_alpha_of_the_rank_quantile(values):
    sketch = h(values)
    ordered = sorted(values)
    for q in Q_GRID:
        got = sketch.quantile(q)
        if not values:
            assert got is None
            continue
        exact = ordered[int(q * (len(ordered) - 1))]
        assert abs(got - exact) <= ALPHA * exact * (1 + 1e-9), (q, got, exact)


@settings(deadline=None)
@given(samples)
def test_row_round_trips(values):
    sketch = h(values, name="lat")
    row = json.loads(json.dumps(sketch.to_row()))
    assert row == sketch.to_row()
    back = QuantileSketch.from_row(row)
    assert state(back) == state(sketch) and back.sum == sketch.sum
    unpickled = pickle.loads(pickle.dumps(sketch))
    assert unpickled.name == "lat" and unpickled.to_row() == sketch.to_row()


def test_merge_skips_none_inputs():
    s = h([1.0, 2.0, 3.0])
    merged = QuantileSketch.merge([None, s, None])
    assert state(merged) == state(s)


def test_merge_of_nothing_is_empty():
    merged = QuantileSketch.merge([None, None])
    assert merged.count == 0
    assert merged.quantile(0.5) is None
    assert merged.summary() == {"count": 0.0}
    assert QuantileSketch.from_row(merged.to_row()).quantile(0.99) is None
