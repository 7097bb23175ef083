"""Traffic substrate: arrival processes, synthetic ng4T-style traces,
measured traffic models (device classes, diurnal envelopes, storms)
with their statistical calibration layer, and the workload driver that
plays traces onto a deployment."""

from .arrivals import (
    RateEnvelope,
    bursty_arrivals,
    compound_arrivals,
    modulated_arrivals,
    poisson_arrivals,
)
from .calibration import CalibrationCheck, CalibrationReport, calibrate_model
from .mobility import (
    CommuteWaveMobility,
    FlashCrowdMobility,
    MobilityModel,
    RandomWalkMobility,
)
from .models import (
    DeviceClassSpec,
    Exponential,
    InterArrival,
    LogNormal,
    ParetoTail,
    ProcessSpec,
    StormSpec,
    TrafficModel,
    get_model,
    make_distribution,
    model_names,
)
from .traces import TraceConfig, TraceRecord, generate_trace, load_trace, save_trace
from .workload import WorkloadDriver

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "modulated_arrivals",
    "compound_arrivals",
    "RateEnvelope",
    "TraceConfig",
    "TraceRecord",
    "generate_trace",
    "save_trace",
    "load_trace",
    "WorkloadDriver",
    "MobilityModel",
    "RandomWalkMobility",
    "CommuteWaveMobility",
    "FlashCrowdMobility",
    "InterArrival",
    "Exponential",
    "LogNormal",
    "ParetoTail",
    "make_distribution",
    "ProcessSpec",
    "DeviceClassSpec",
    "StormSpec",
    "TrafficModel",
    "get_model",
    "model_names",
    "CalibrationCheck",
    "CalibrationReport",
    "calibrate_model",
]
