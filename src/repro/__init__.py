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

import importlib

__version__ = "1.0.0"

#: public name -> defining module, imported on first use, so a process
#: that only serves stored profiles never loads the simulated runtime
_EXPORTS = {
    "AccessKind": "repro.core.events",
    "DIMENSIONS": "repro.core.tuples",
    "LeapProfile": "repro.profilers.leap",
    "LeapProfiler": "repro.profilers.leap",
    "ObjectManager": "repro.core.omc",
    "ObjectRelativeAccess": "repro.core.tuples",
    "OnlineCDC": "repro.core.cdc",
    "Process": "repro.runtime.process",
    "Trace": "repro.core.events",
    "WhompProfile": "repro.profilers.whomp",
    "WhompProfiler": "repro.profilers.whomp",
    "translate_trace": "repro.core.cdc",
    "translate_trace_list": "repro.core.cdc",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
