"""OCEP: an efficient online causal-event-pattern-matching framework.

Reproduction of Pramanik, Taylor & Wong, *Towards an Efficient Online
Causal-Event-Pattern-Matching Framework*, ICDCS 2013.

The typical pipeline::

    from repro import Kernel, Monitor, instrument

    kernel = ...                 # build a simulated target application
    server = instrument(kernel)  # POET substrate collecting its events
    monitor = Monitor.from_source(pattern_text, kernel.trace_names())
    server.connect(monitor)
    kernel.run()
    print(monitor.subset.matches)

See ``examples/quickstart.py`` for a complete runnable version, and
DESIGN.md for the system inventory and experiment index.
"""

from repro.clocks import LamportClock, Ordering, VectorClock
from repro.core import (
    CausalIndex,
    Match,
    MatcherConfig,
    MatchReport,
    Monitor,
    MonitorStats,
    OCEPMatcher,
    RepresentativeSubset,
    SweepMode,
    enumerate_matches,
)
from repro.events import CompoundEvent, Event, EventId, EventKind, EventStore, Trace
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    SearchTrace,
    to_json,
    to_prometheus,
)
from repro.patterns import (
    CompiledPattern,
    PatternError,
    PatternParseError,
    PatternTree,
    compile_pattern,
    parse_pattern,
)
from repro.poet import (
    HoldbackBuffer,
    POETClient,
    POETServer,
    RecordingClient,
    dump_events,
    instrument,
    is_linearization,
    linearize,
    load_events,
)
from repro.resilience import FaultInjector, FaultPlan
from repro.simulation import (
    ANY_SOURCE,
    DeadlockError,
    Kernel,
    MPIContext,
    Proc,
    Semaphore,
    SimulationResult,
    mpi_run,
)

__version__ = "1.0.0"

__all__ = [
    "VectorClock",
    "LamportClock",
    "Ordering",
    "Event",
    "EventId",
    "EventKind",
    "Trace",
    "EventStore",
    "CompoundEvent",
    "POETServer",
    "POETClient",
    "RecordingClient",
    "instrument",
    "linearize",
    "is_linearization",
    "dump_events",
    "load_events",
    "HoldbackBuffer",
    "FaultPlan",
    "FaultInjector",
    "Kernel",
    "SimulationResult",
    "DeadlockError",
    "ANY_SOURCE",
    "Proc",
    "MPIContext",
    "mpi_run",
    "Semaphore",
    "parse_pattern",
    "PatternTree",
    "compile_pattern",
    "CompiledPattern",
    "PatternError",
    "PatternParseError",
    "OCEPMatcher",
    "Monitor",
    "MonitorStats",
    "MatcherConfig",
    "SweepMode",
    "Match",
    "MatchReport",
    "RepresentativeSubset",
    "CausalIndex",
    "enumerate_matches",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "SearchTrace",
    "to_json",
    "to_prometheus",
    "__version__",
]
