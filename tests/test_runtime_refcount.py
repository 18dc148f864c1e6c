"""A finished simulation is freed by refcount, not by the cyclic GC.

Long-lived pool workers run many grid cells back to back (DESIGN.md §9).
If a run were a reference cycle, its threads, trace and operation log
would linger until the cyclic collector happened to run, and a worker's
resident memory would grow with every cell it ran.  Each test here
drops a run's result with the collector disabled and requires a weak
reference to the run's :class:`Simulator` to be dead at once.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.core.algorithm import algorithm_names, get_algorithm, run_algorithm
from repro.core.full_sgd import FullSGD
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.program import FunctionProgram
from repro.runtime.simulator import Simulator
from repro.sched.registry import build_scheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every Simulator built while the test runs,
    with the cyclic collector off so only refcounting can free them."""
    refs = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _assert_all_freed(refs):
    assert refs, "the run built no Simulator"
    alive = [ref for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} of {len(refs)} simulator(s) outlived their run"


def _objective():
    return IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "analyzed"])
@pytest.mark.parametrize("name", algorithm_names())
def test_run_algorithm_frees_its_simulator(simulators, name, sanitize):
    analyzers = (RaceStalenessSanitizer(),) if sanitize else ()
    result = run_algorithm(
        get_algorithm(name),
        _objective(),
        build_scheduler("stale-attack", seed=3),
        num_threads=3,
        step_size=0.05,
        iterations=30,
        x0=np.full(2, 2.0),
        seed=3,
        analyzers=analyzers,
    )
    assert result.sim_steps > 0
    del result
    _assert_all_freed(simulators)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "analyzed"])
def test_full_sgd_run_frees_its_simulator(simulators, sanitize):
    analyzers = (RaceStalenessSanitizer(),) if sanitize else ()
    runner = FullSGD(
        _objective(),
        num_threads=2,
        epsilon=0.25,
        alpha0=0.05,
        iterations_per_epoch=20,
        num_epochs=2,
        x0=np.full(2, 2.0),
    )
    result = runner.run(RoundRobinScheduler(), seed=5, analyzers=analyzers)
    del result
    _assert_all_freed(simulators)


def _counting_simulator():
    memory = SharedMemory(record_log=False)
    counter = AtomicCounter.allocate(memory, name="c")
    sim = Simulator(memory, RoundRobinScheduler(), seed=1)

    def body(ctx):
        for _ in range(5):
            old = yield counter.increment_op()
            ctx.annotate("last", old)
        return ctx.now

    for _ in range(3):
        sim.spawn(FunctionProgram(body))
    return sim


@pytest.mark.parametrize("method", ["run", "run_fast"])
def test_simulator_run_frees_itself(simulators, method):
    sim = _counting_simulator()
    assert getattr(sim, method)() == 15
    del sim
    _assert_all_freed(simulators)
