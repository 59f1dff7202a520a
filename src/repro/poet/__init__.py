"""POET substrate: the Partial-Order Event Tracer stand-in.

POET [21] is the existing tool the paper builds on: a target-system-
independent tracer that collects instrumented events grouped by trace,
stores the partial-order relationships among them, and can deliver
events to a client as a *linearization of the partial order*.  This
package reimplements the slice of POET that OCEP uses:

* :class:`~repro.poet.server.POETServer` — checks and counts each
  collected event (it keeps none: POET's store serves its GUI, and a
  :class:`~repro.poet.client.RecordingClient` or the dump keeps the
  stream here) and forwards it to connected clients in a causally
  consistent order;
* :class:`~repro.poet.client.POETClient` — the client interface OCEP's
  monitor implements;
* :mod:`~repro.poet.linearize` — linearization construction and
  verification;
* :mod:`~repro.poet.dumpfile` — the dump/reload feature used by the
  paper's evaluation methodology (collect once, replay many times);
* :mod:`~repro.poet.holdback` — the causal hold-back buffer repairing
  out-of-order, duplicated, or gapped delivery in front of a client;
* :mod:`~repro.poet.instrument` — attaching a server to a simulated
  target environment.
"""

from repro.poet.server import DeliveryOrderError, POETServer
from repro.poet.client import CallbackClient, POETClient, RecordingClient
from repro.poet.linearize import is_linearization, linearize
from repro.poet.dumpfile import (
    DumpFormatError,
    dump_events,
    load_events,
)
from repro.poet.holdback import (
    HoldbackBuffer,
    HoldbackOverflowError,
    HoldbackStallError,
)
from repro.poet.instrument import instrument

__all__ = [
    "POETServer",
    "DeliveryOrderError",
    "POETClient",
    "CallbackClient",
    "RecordingClient",
    "linearize",
    "is_linearization",
    "DumpFormatError",
    "dump_events",
    "load_events",
    "HoldbackBuffer",
    "HoldbackOverflowError",
    "HoldbackStallError",
    "instrument",
]
