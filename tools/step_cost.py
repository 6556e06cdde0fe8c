"""Time one step and one contact detection, as the minimum over repeats.

Prints one line per figure, in microseconds:

- one VI step and one Verlet step of the box4000 benchmark
  configuration (seed 3) at a contact-free state (after step 117) and
  at a contact state (after step 333, where the benchmark run ends).
  Each repeat detects contacts as the step does inside a run: the VI
  step detects q_k itself, the Verlet step reuses the set and gradient
  at q_k and detects q_{k+1}.
- one ``_detect_unchecked`` at N = 1 (walls), 3 (bonded), 218 (box)
  and 4000 (box4000), at the scenario's initial centres.

A per-call minimum is steadier than a long run's median, but a slow
spell of a shared machine can still raise a figure, so two checkouts
compare by running each more than once, alternating, on one machine:

    PYTHONPATH=src python3 tools/step_cost.py
    PYTHONPATH=/path/to/parent/src python3 tools/step_cost.py

BLAS runs on one thread, as in ``perfbench/run.py``. Needs only the
standard library and vigrain; takes a few seconds.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import time  # noqa: E402

from vigrain import VerletIntegrator, VIConfig, VIIntegrator, pack_state  # noqa: E402
from vigrain.contact import NeighborList, _detect_unchecked  # noqa: E402
from vigrain.io import parse_config  # noqa: E402
from vigrain.scenarios import build_scenario  # noqa: E402

BOX4000 = {"scenario": "box", "duration": 0.14, "n_particles": 4000,
           "box_size": 16, "seed": 3}
STATES = (("contact-free", 117), ("contact", 333))   # steps taken before
STEP_REPEATS = 101
DETECT_REPEATS = 1001
DETECTIONS = (("walls", {"scenario": "walls"}),
              ("bonded", {"scenario": "bonded"}),
              ("box", {"scenario": "box", "seed": 3}),
              ("box4000", BOX4000))


def scenario(doc: dict):
    spec = parse_config(json.dumps(doc)).spec
    return build_scenario(spec), spec


def min_us(call, repeats: int, prepare=lambda: None) -> float:
    """The fastest of repeats calls, in microseconds; prepare runs untimed
    before each."""
    best = float("inf")
    for _ in range(repeats):
        prepare()
        start = time.perf_counter_ns()
        call()
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e3


def box4000_states():
    """The (label, state) pairs of STATES, stepped by the VI integrator."""
    system, spec = scenario(BOX4000)
    vi = VIIntegrator(system, spec.contact_params(), VIConfig(h=spec.h, alpha=spec.alpha))
    state, states = pack_state(system), []
    for label, steps in STATES:
        while state.k < steps:
            state, _ = vi.step(state)
        states.append((label, state))
    return system, spec, states


def step_lines():
    system, spec, states = box4000_states()
    params = spec.contact_params()
    for label, state in states:
        vi = VIIntegrator(system, params, VIConfig(h=spec.h, alpha=spec.alpha))
        verlet = VerletIntegrator(system, params, spec.h)
        n_contacts = len(vi.contacts_at(state.q))

        def forget():
            vi.nlist.contacts_at(state.q)  # keeps the list fresh at q_k ...
            vi.nlist._q = None             # ... but not its cached set

        def verlet_at_q_k():
            verlet._force(state.q, state.p / verlet.mass)

        vi_us = min_us(lambda: vi.step(state), STEP_REPEATS, forget)
        verlet_us = min_us(lambda: verlet.step(state), STEP_REPEATS, verlet_at_q_k)
        yield (f"box4000 seed 3 {label} step ({n_contacts} contacts at q_k): "
               f"VI {vi_us:.0f} us, Verlet {verlet_us:.0f} us")


def detect_lines():
    for label, doc in DETECTIONS:
        system, _ = scenario(doc)
        nlist = NeighborList.build(system)
        us = min_us(lambda: _detect_unchecked(system.pos, nlist), DETECT_REPEATS)
        yield (f"detect {label} N = {system.n} ({nlist.ends.shape[1]} candidates): "
               f"{us:.1f} us")


def main() -> None:
    for line in (*step_lines(), *detect_lines()):
        print(line, flush=True)


if __name__ == "__main__":
    main()
