"""The paper's introductory example: a traffic-light system.

Section I: "in a traffic-light system, a correctness condition is that
lights in only one direction may be green in the global state.
Alternatively, this problem can be modeled as a sequence of events
between the lights.  An event-matching-based approach monitors the
events ``e_i`` that denote light ``i`` has turned green and then
searches for a pattern that represents two events ``e_i`` and ``e_j``
happening concurrently.  A match to this pattern signifies that the
system is in an unsafe state."

Each light is a process; a controller grants the green phase by
message and the light returns it before the next grant — so correctly
sequenced ``Green`` events are causally ordered through the
controller.  The injected bug: with some probability a light turns
green *on its own* (a stuck relay), concurrent with the legitimate
phase.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.poet.instrument import instrument
from repro.poet.server import POETServer
from repro.simulation.kernel import Kernel, SimulationResult
from repro.simulation.process import Proc


def traffic_light_pattern() -> str:
    """Two lights green concurrently — the unsafe state as a pattern."""
    return """
G1 := ['', Green, ''];
G2 := ['', Green, ''];
pattern := G1 || G2;
"""


@dataclasses.dataclass
class TrafficLightResult:
    """A built (not yet run) traffic-light workload.

    ``faults`` records ground truth: ``(light, cycle)`` of every
    spontaneous (uncommanded) green, appended as the simulation runs.
    """

    kernel: Kernel
    server: POETServer
    num_traces: int
    controller: int
    faults: List[Tuple[int, int]]

    def run(self, max_events: Optional[int] = None) -> SimulationResult:
        return self.kernel.run(max_events=max_events)


def build_traffic_light(
    num_lights: int = 4,
    seed: int = 0,
    cycles: int = 20,
    fault_probability: float = 0.02,
    verify_delivery: bool = False,
) -> TrafficLightResult:
    """Build the traffic-light workload.

    Trace 0 is the controller; traces 1..num_lights are lights.  The
    controller grants green to one light at a time and waits for the
    phase to end before granting the next, so correct greens are
    totally ordered through it.
    """
    if num_lights < 2:
        raise ValueError(f"need >= 2 lights for a conflict, got {num_lights}")

    kernel = Kernel(
        num_processes=num_lights + 1,
        seed=seed,
        buffer_capacity=None,
    )
    server = instrument(kernel, verify=verify_delivery)
    controller = 0
    faults: List[Tuple[int, int]] = []

    def controller_body(proc: Proc):
        rng = proc.rng
        for cycle in range(cycles):
            light = 1 + (cycle % num_lights)
            yield proc.send(light, payload=("go", cycle), text=f"to{light}")
            yield proc.receive(light)
            yield proc.sleep(rng.random() * 0.5)

    def light_body(proc: Proc):
        rng = proc.rng
        my_cycles = [c for c in range(cycles) if 1 + (c % num_lights) == proc.pid]
        for cycle in my_cycles:
            # the injected bug: a stuck relay goes green uncommanded,
            # concurrent with whoever legitimately holds the phase
            if rng.random() < fault_probability:
                faults.append((proc.pid, cycle))
                yield proc.emit("Green", text=f"fault@{cycle}")
                yield proc.emit("Red", text=f"fault@{cycle}")
            grant = yield proc.receive(controller)
            yield proc.emit("Green", text=str(grant.payload[1]))
            yield proc.sleep(rng.random())
            yield proc.emit("Red", text=str(grant.payload[1]))
            yield proc.send(controller, payload=("done", grant.payload[1]),
                            text=f"to{controller}")

    kernel.spawn(controller, controller_body)
    for pid in range(1, num_lights + 1):
        kernel.spawn(pid, light_body)

    return TrafficLightResult(
        kernel=kernel,
        server=server,
        num_traces=kernel.num_traces,
        controller=controller,
        faults=faults,
    )
