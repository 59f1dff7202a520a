"""Deterministic discrete-event simulation of message-passing systems.

The paper evaluates OCEP on event data collected by POET from
instrumented MPI and μC++ applications.  Neither substrate is
available here, so this package provides the closest synthetic
equivalent: a seeded discrete-event simulator whose *sequential
processes* communicate only by message passing, with

* blocking point-to-point sends whose blocking behaviour depends on
  network buffering (mirroring the MPI_Send subtlety the deadlock case
  study relies on),
* receives with source selection including a wildcard ``ANY_SOURCE``,
* semaphores modelled as separate traces (the μC++ POET plugin
  behaviour the atomicity case study relies on), and
* encoded vector timestamps (:mod:`repro.clocks.encoded`) plus Lamport
  clocks maintained by the kernel and stamped on every emitted event.

Events are emitted in simulation-time order, which is a valid
linearization of the happens-before partial order by construction
(message consumption always occurs at a later simulation time than the
send).  The POET substrate (:mod:`repro.poet`) consumes this stream.
"""

from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.kernel import ANY_SOURCE, Kernel, SimulationResult
from repro.simulation.network import Message, Network
from repro.simulation.process import Proc
from repro.simulation.mpi import MPIContext, mpi_run
from repro.simulation.ucpp import Semaphore

__all__ = [
    "ANY_SOURCE",
    "Kernel",
    "SimulationResult",
    "SimulationError",
    "DeadlockError",
    "Message",
    "Network",
    "Proc",
    "MPIContext",
    "mpi_run",
    "Semaphore",
]
