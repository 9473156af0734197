"""Object-relative memory profiling (CGO 2004 reproduction).

A library reproduction of "Exposing Memory Access Regularities Using
Object-Relative Memory Profiling" (Wu, Pyatakov, Spiridonov, Raman,
Clark, August -- CGO 2004): the object-relative translation and
decomposition techniques, the WHOMP (lossless, Sequitur) and LEAP
(lossy, LMAD) profilers built on them, the baselines they are compared
against, a simulated process runtime to profile, and the experiment
harness that regenerates every figure and table of the paper.

Quickstart::

    from repro import LeapProfiler, WhompProfiler
    from repro.workloads.registry import create

    trace = create("gzip").trace()
    leap = LeapProfiler().profile(trace)
    print(leap.accesses_captured())
"""

from repro.core.cdc import OnlineCDC, translate_trace, translate_trace_list
from repro.core.events import AccessKind, Trace
from repro.core.omc import ObjectManager
from repro.core.tuples import DIMENSIONS, ObjectRelativeAccess
from repro.profilers.leap import LeapProfile, LeapProfiler
from repro.profilers.whomp import WhompProfile, WhompProfiler
from repro.runtime.process import Process

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "DIMENSIONS",
    "LeapProfile",
    "LeapProfiler",
    "ObjectManager",
    "ObjectRelativeAccess",
    "OnlineCDC",
    "Process",
    "Trace",
    "WhompProfile",
    "WhompProfiler",
    "translate_trace",
    "translate_trace_list",
]
