"""The paper's two object-relative profilers."""

from repro.profilers.leap import LeapProfile, LeapProfiler
from repro.profilers.pipeline import OnlineSession, ProfilerPipeline
from repro.profilers.whomp import WhompProfile, WhompProfiler

__all__ = [
    "LeapProfile", "LeapProfiler", "OnlineSession", "ProfilerPipeline",
    "WhompProfile", "WhompProfiler",
]
