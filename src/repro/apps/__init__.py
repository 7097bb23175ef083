"""Edge applications driven by the simulated control plane (§6.6):
self-driving car and VR.  Fig. 3's DASH video startup and web page
loads are service-request PCT plus a constant, so they live with the
figure (:func:`repro.experiments.figures.fig03_plt_and_video`)."""

from .datapath import StallInterval, count_missed_deadlines, stalls_from_outcomes
from .mobility import (
    MobilityAppSpec,
    MobilityResult,
    run_mobility_experiment,
    self_driving_spec,
    vr_spec,
)

__all__ = [
    "StallInterval",
    "stalls_from_outcomes",
    "count_missed_deadlines",
    "MobilityAppSpec",
    "MobilityResult",
    "run_mobility_experiment",
    "self_driving_spec",
    "vr_spec",
]
