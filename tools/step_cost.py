"""Time one step and one contact detection, per call.

Prints one line per figure, the median and quartiles of the per-call
times in microseconds:

- one VI step and one Verlet step of the box4000 benchmark
  configuration (seed 3) at a contact-free state (after step 117) and
  at a contact state (after step 333, where the benchmark run ends).
  Each call detects contacts as the step does inside a run: the VI
  step detects q_k itself, the Verlet step reuses the set and gradient
  at q_k and detects q_{k+1}.
- one ``_detect_unchecked`` at N = 1 (walls), 3 (bonded), 218 (box)
  and 4000 (box4000), at the scenario's initial centres.

A shared machine runs at different speeds from one second to the next,
so two checkouts compare best in one process. ``--parent SRC`` loads the
vigrain package under SRC (a parent checkout's ``src``) as a second
package and alternates the calls of the two trees, each repeat taking
the other tree first; each line then gives both trees' figures and the
change of the medians:

    PYTHONPATH=src python3 tools/step_cost.py --parent /path/to/parent/src

Both trees step the same states, made by the tree on PYTHONPATH. They
also share one allocator: glibc serves an array from fresh, page-faulting
mmap'd memory until the process has freed one at least as large, so a
cost of that kind can show in one process and not in another, and only
a separate process per tree, as in ``perfbench/run.py``, shows it. BLAS
runs on one thread, as in ``perfbench/run.py``. Needs only the standard
library, numpy and vigrain; takes a few seconds, about twice that with
``--parent``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BOX4000 = {"scenario": "box", "duration": 0.14, "n_particles": 4000,
           "box_size": 16, "seed": 3}
STATES = (("contact-free", 117), ("contact", 333))   # steps taken before
STEP_REPEATS = 101
DETECT_REPEATS = 1001
DETECTIONS = (("walls", {"scenario": "walls"}),
              ("bonded", {"scenario": "bonded"}),
              ("box", {"scenario": "box", "seed": 3}),
              ("box4000", BOX4000))


class Tree:
    """The modules of one vigrain package that the timings call."""

    def __init__(self, package: str):
        def sub(name):
            return importlib.import_module(f"{package}.{name}")
        self.vigrain = importlib.import_module(package)
        self.contact, self.io = sub("contact"), sub("io")
        self.scenarios = sub("scenarios")

    def scenario(self, doc: dict):
        spec = self.io.parse_config(json.dumps(doc)).spec
        return self.scenarios.build_scenario(spec), spec

    def state(self, q, p, k: int):
        return self.vigrain.GeneralizedState(q=q.copy(), p=p.copy(), t=0.0, k=k)


def load_parent(src: Path) -> Tree:
    """The vigrain package under src, imported as vigrain_parent; its
    modules import each other relatively, so they resolve within it."""
    init = src / "vigrain" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "vigrain_parent", init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["vigrain_parent"] = module
    spec.loader.exec_module(module)
    return Tree("vigrain_parent")


def time_calls(calls, repeats: int) -> list[np.ndarray]:
    """Per-call microseconds of each (call, prepare) pair, the pairs
    alternated in one loop and rotated by one at every repeat; prepare
    runs untimed before its call."""
    times = [[] for _ in calls]
    for rep in range(repeats):
        for k in range(len(calls)):
            idx = (rep + k) % len(calls)
            call, prepare = calls[idx]
            prepare()
            start = time.perf_counter_ns()
            call()
            times[idx].append(time.perf_counter_ns() - start)
    return [np.asarray(t) / 1e3 for t in times]


def figure(us: np.ndarray) -> str:
    q1, med, q3 = np.percentile(us, [25, 50, 75])
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def line(label: str, samples: list[np.ndarray]) -> str:
    """label: median [quartiles] us, the parent's first when there are two."""
    if len(samples) == 1:
        return f"{label}: {figure(samples[0])} us"
    change, parent = samples
    gain = np.median(change) / np.median(parent) - 1.0
    return (f"{label}: parent {figure(parent)} -> {figure(change)} us "
            f"({gain:+.0%})")


def box4000_states(tree: Tree):
    """The (label, q, p, k) of STATES, stepped by the VI integrator."""
    system, spec = tree.scenario(BOX4000)
    vi = tree.vigrain.VIIntegrator(system, spec.contact_params(),
                                   tree.vigrain.VIConfig(h=spec.h, alpha=spec.alpha))
    state, states = tree.vigrain.pack_state(system), []
    for label, steps in STATES:
        while state.k < steps:
            state, _ = vi.step(state)
        states.append((label, state.q.copy(), state.p.copy(), state.k))
    return states


def step_calls(tree: Tree, q, p, k: int):
    """(VI call, prepare), (Verlet call, prepare) and the contacts at q_k."""
    system, spec = tree.scenario(BOX4000)
    params = spec.contact_params()
    vi = tree.vigrain.VIIntegrator(system, params,
                                   tree.vigrain.VIConfig(h=spec.h, alpha=spec.alpha))
    verlet = tree.vigrain.VerletIntegrator(system, params, spec.h)
    state = tree.state(q, p, k)

    def forget():
        vi.nlist.contacts_at(state.q)  # keeps the list fresh at q_k ...
        # ... but not its cached set (keyed on _q in older trees)
        vi.nlist._q = vi.nlist._contacts = None

    def verlet_at_q_k():
        # the contacts and gradient at q_k, as the step before leaves them
        v = state.p / verlet.mass
        if hasattr(verlet, "_kick"):
            verlet._kick(state.q, v, np.empty_like(v))
        else:   # a tree whose kicks span all 6N DOFs
            verlet._force(state.q, v)

    return ((lambda: vi.step(state), forget),
            (lambda: verlet.step(state), verlet_at_q_k),
            len(vi.contacts_at(state.q)))


def step_lines(trees: list[Tree]):
    for label, q, p, k in box4000_states(trees[0]):
        per_tree = [step_calls(tree, q, p, k) for tree in trees]
        n_contacts = per_tree[0][2]
        vi_us = time_calls([calls[0] for calls in per_tree], STEP_REPEATS)
        verlet_us = time_calls([calls[1] for calls in per_tree], STEP_REPEATS)
        head = f"box4000 seed 3 {label} step ({n_contacts} contacts at q_k)"
        yield line(f"{head}, VI", vi_us)
        yield line(f"{head}, Verlet", verlet_us)


def detect_lines(trees: list[Tree]):
    for label, doc in DETECTIONS:
        calls = []
        for tree in trees:
            system, _ = tree.scenario(doc)
            nlist = tree.contact.NeighborList.build(system)
            calls.append((lambda c=tree.contact, s=system, nl=nlist:
                          c._detect_unchecked(s.pos, nl), lambda: None))
        us = time_calls(calls, DETECT_REPEATS)
        yield (line(f"detect {label} N = {system.n} "
                    f"({nlist.ends.shape[1]} candidates)", us))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, metavar="SRC",
                        help="a parent checkout's src, timed alternately")
    args = parser.parse_args()
    trees = [Tree("vigrain")]
    if args.parent is not None:
        trees.append(load_parent(args.parent))
    for text in (*step_lines(trees), *detect_lines(trees)):
        print(text, flush=True)


if __name__ == "__main__":
    main()
