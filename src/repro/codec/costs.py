"""Serialization cost model: codec work as simulated CPU time.

The testbed's absolute per-message CPU costs are not reproducible in
Python (our codecs are orders of magnitude slower than the paper's C),
so the simulator prices serialization with a calibrated linear model

    cost(codec, message) = fixed + per_element * n_elements

whose coefficients are set to reproduce the paper's *relative* numbers:

* Fig. 18 — speedups vs ASN.1 between ~1.6x and ~19.2x, Fast-CDR/LCM
  ahead below ~7 information elements, FlatBuffers the clear winner
  beyond, FB reaching ~19x at 35 elements;
* Fig. 19 — up to ~5.9x faster encode+decode on real S1 messages
  (8-20 elements), Optimized FB slightly faster still;
* saturation knees — existing EPC's attach capacity (~60 KPPS across 5
  CPFs) implies ~14 µs/message with ASN.1; Neutrino's (~120 KPPS)
  implies ~7 µs with FlatBuffers, fixing the non-serialization base
  cost near 4 µs/message.

``measure`` / ``measure_interleaved`` also offer endogenous
calibration: time the *real* Python codecs in this repository and
derive coefficients from those measurements (used by the benchmarks to
cross-check that the modeled ordering matches the implemented codecs'
actual ordering).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from .base import get_codec
from .schema import Type, count_elements

__all__ = [
    "LinearCost", "CostModel", "measure", "measure_interleaved", "fit_linear",
]


@dataclass(frozen=True)
class LinearCost:
    """Encode+decode cost in seconds: ``fixed + per_element * n``."""

    fixed_s: float
    per_element_s: float

    def total(self, n_elements: int) -> float:
        return self.fixed_s + self.per_element_s * n_elements

    def encode(self, n_elements: int) -> float:
        """Encode share; PER and FB both skew slightly decode-heavy."""
        return 0.45 * self.total(n_elements)

    def decode(self, n_elements: int) -> float:
        return 0.55 * self.total(n_elements)


#: Calibrated defaults (seconds).  See module docstring for derivation.
DEFAULT_COSTS: Dict[str, LinearCost] = {
    "asn1per": LinearCost(3.00e-6, 0.62e-6),
    "flatbuffers": LinearCost(0.90e-6, 0.006e-6),
    "flatbuffers_opt": LinearCost(0.85e-6, 0.0055e-6),
    "cdr": LinearCost(0.35e-6, 0.070e-6),
    "lcm": LinearCost(0.30e-6, 0.075e-6),
    "protobuf": LinearCost(0.80e-6, 0.180e-6),
    "flexbuffers": LinearCost(1.00e-6, 0.250e-6),
}


@dataclass
class CostModel:
    """Maps (codec, message) to CPU service time on a simulated node."""

    base_process_s: float = 5.5e-6  # protocol handling excluding (de)serialization
    codec_costs: Dict[str, LinearCost] = field(
        default_factory=lambda: dict(DEFAULT_COSTS)
    )

    def codec_cost(self, codec_name: str) -> LinearCost:
        try:
            return self.codec_costs[codec_name]
        except KeyError:
            raise KeyError("no cost calibration for codec %r" % codec_name)

    def serialize_cost(self, codec_name: str, n_elements: int) -> float:
        return self.codec_cost(codec_name).encode(n_elements)

    def deserialize_cost(self, codec_name: str, n_elements: int) -> float:
        return self.codec_cost(codec_name).decode(n_elements)

    def message_service_time(self, codec_name: str, n_elements: int) -> float:
        """CPU time a node spends to receive, handle, and answer a message.

        One decode (request in) + protocol handling + one encode
        (response out).
        """
        cost = self.codec_cost(codec_name)
        return self.base_process_s + cost.total(n_elements)

    def speedup_vs(self, codec_name: str, baseline: str, n_elements: int) -> float:
        return self.codec_cost(baseline).total(n_elements) / self.codec_cost(
            codec_name
        ).total(n_elements)


def measure(
    codec_name: str,
    type_: Type,
    value: Any,
    repeats: int = 200,
    timer=time.perf_counter,
) -> Tuple[float, float]:
    """Measured (encode_s, decode_s) per operation for the real codec.

    Runs the actual Python implementation (see
    :func:`measure_interleaved`, which this is for one codec).
    """
    return measure_interleaved((codec_name,), type_, value, repeats, timer)[
        codec_name
    ]


def measure_interleaved(
    codec_names: Sequence[str],
    type_: Type,
    value: Any,
    repeats: int = 200,
    timer=time.perf_counter,
) -> Dict[str, Tuple[float, float]]:
    """Measured (encode_s, decode_s) per operation of several codecs.

    Used by the Fig. 18/19 benchmarks to show that the implemented
    codecs' ordering matches the calibrated model's ordering, so the
    codecs are timed together: ``repeats`` is cut into up to 24 equal
    chunks, and chunk ``i`` of every codec (encode, then decode) runs
    before chunk ``i + 1`` of any.  Each time is the *best*
    per-operation time over its chunks (the ``timeit`` convention): the
    minimum estimates the codec's true cost, where a single mean would
    absorb whatever scheduler preemption or GC pause happened to land
    in the window.  Interleaving puts a slow spell of a shared host on
    every codec's chunks instead of on whichever codec was being timed
    — enough, under load, to flip the measured ordering of two codecs.
    A codec that cannot express ``type_`` raises
    :class:`~repro.codec.base.UnsupportedSchema`.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runs = []
    for name in codec_names:
        codec = get_codec(name)
        data = codec.encode(type_, value)  # warm caches, validate once
        runs.append((name, codec.encode, codec.decode, data))

    n_chunks = min(24, repeats)
    base, extra = divmod(repeats, n_chunks)
    chunks = [base + (1 if i < extra else 0) for i in range(n_chunks)]

    best = {name: [None, None] for name in codec_names}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for chunk in chunks:
            for name, encode, decode, data in runs:
                times = best[name]
                start = timer()
                for _ in range(chunk):
                    encode(type_, value)
                per_op = (timer() - start) / chunk
                if times[0] is None or per_op < times[0]:
                    times[0] = per_op
                start = timer()
                for _ in range(chunk):
                    decode(type_, data)
                per_op = (timer() - start) / chunk
                if times[1] is None or per_op < times[1]:
                    times[1] = per_op
    finally:
        if gc_was_enabled:
            gc.enable()
    return {name: (enc, dec) for name, (enc, dec) in best.items()}


def fit_linear(
    codec_name: str,
    samples: Dict[int, Tuple[Type, Any]],
    repeats: int = 100,
) -> LinearCost:
    """Least-squares fit of a :class:`LinearCost` from real measurements.

    ``samples`` maps an element count to a (schema, value) pair.  Useful
    for re-deriving the cost table from this machine's actual codec
    speeds instead of the paper-calibrated defaults.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to fit a line")
    xs, ys = [], []
    for n, (type_, value) in samples.items():
        enc, dec = measure(codec_name, type_, value, repeats)
        actual_n = count_elements(value, type_)
        if actual_n != n:
            n = actual_n
        xs.append(float(n))
        ys.append(enc + dec)
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return LinearCost(mean_y, 0.0)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    intercept = mean_y - slope * mean_x
    return LinearCost(max(intercept, 0.0), max(slope, 0.0))
