"""Attaching POET to a target environment.

In the paper, POET collects events from instrumented μC++/MPI binaries
through environment-specific plugins.  Here the target environment is
the simulation kernel; *instrumenting* it means wiring the kernel's
event sink into a POET server, which then fans events out to any
connected clients (the OCEP monitor, recorders, dump writers).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel


def instrument(
    kernel: Kernel,
    verify: bool = False,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
) -> POETServer:
    """Create a POET server wired to a simulation kernel.

    Every event the kernel emits flows into the server (and on to its
    clients) in linearization order.  Connect clients *before* calling
    :meth:`Kernel.run`, or they will miss the prefix.  ``registry``
    forwards to :class:`POETServer` for delivery accounting; ``tracer``
    is installed on both the kernel (simulated-time tracks and
    happens-before flows) and the server (delivery spans).
    """
    server = POETServer(
        num_traces=kernel.num_traces,
        trace_names=kernel.trace_names(),
        verify=verify,
        registry=registry,
        tracer=tracer,
    )
    if tracer is not None:
        kernel.set_tracer(tracer)
    kernel.add_sink(server.collect)
    return server
