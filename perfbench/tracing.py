"""Layer spans recorded around the library's public calls, from outside it.

The traced run installs wrappers on the functions and methods listed in
``FUNCTIONS``, ``CALL_SITES``, ``METHODS`` and on the DAE classes' batched
evaluations; nothing inside ``src/`` knows about tracing.  Each wrapper
records a span ``[name, start, end, parent, unit]`` in memory: ``parent``
is the index of the enclosing span on the same thread (``None`` for a
root span) and ``unit`` is the identifier of the timed unit running when
the span began (``None`` during set-up).  A call that re-enters a layer
already open on the thread (``KernelizedDAE.q_batch`` calling its own
``qf_batch``) is not recorded again, so a layer's call count and busy time
count outermost calls only.

A span's self time is its duration minus the part of its interval that its
direct children cover (:func:`self_times`).

In a service pool worker, :func:`worker_init` installs the same wrappers
and wraps ``execute_payload``; each job's spans are appended as one JSON
line to ``worker-<pid>.jsonl`` in the trace directory, numbered in the
order the worker ran them, and the client maps those numbers to its own
unit identifiers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Span name of a pool worker's whole job (``execute_payload``).
WORKER_JOB = "service.pool.execute"

#: Batched evaluation methods that make up the ``dae.eval`` layer.
DAE_EVAL_METHODS = ("q_batch", "f_batch", "dq_dx_batch", "df_dx_batch",
                    "qf_batch")

#: ``(span name, module, attribute)``: module-level functions, patched in
#: every ``repro`` module that holds a reference to them.
FUNCTIONS = (
    ("kernels.build", "repro.kernels.backends", "build_kernel"),
    ("wampde.envelope.march", "repro.wampde.envelope",
     "solve_wampde_envelope"),
    ("wampde.initial_condition", "repro.wampde.initial_condition",
     "oscillator_initial_condition"),
    ("transient.engine", "repro.transient.engine", "simulate_transient"),
    ("transient.ensemble", "repro.transient.ensemble",
     "simulate_transient_ensemble"),
    ("steadystate.harmonic_balance", "repro.steadystate.harmonic_balance",
     "harmonic_balance_forced"),
    ("steadystate.harmonic_balance", "repro.steadystate.harmonic_balance",
     "harmonic_balance_autonomous"),
    ("mpde.quasiperiodic", "repro.mpde.quasiperiodic",
     "solve_mpde_quasiperiodic"),
    ("service.keys", "repro.service.keys", "content_key"),
)

#: ``(span name, calling module, attribute)``: serializer
#: entry points, patched only at the service's call sites (the serializer
#: recurses through its own module globals).
CALL_SITES = (
    ("api.serialize", "repro.service.keys", "to_jsonable"),
    ("api.serialize", "repro.service.cache", "to_jsonable"),
    ("api.serialize", "repro.service.cache", "from_jsonable"),
)

#: ``(span name, module, class, method)``.
METHODS = (
    ("kernels.sweep", "repro.kernels.sweep", "CompiledSweepRunner", "run"),
    ("kernels.sweep", "repro.kernels.sweep", "EnsembleSweepRunner", "run"),
    ("linalg.collocation.refresh", "repro.linalg.collocation",
     "CollocationJacobianAssembler", "refresh"),
    ("linalg.lu_cache.factor", "repro.linalg.lu_cache",
     "FrozenFactorization", "factor"),
    ("linalg.lu_cache.solve", "repro.linalg.lu_cache",
     "FrozenFactorization", "solve"),
    ("wampde.envelope.residual", "repro.wampde.envelope", "_EnvelopeStepper",
     "residual"),
    ("wampde.envelope.jacobian", "repro.wampde.envelope", "_EnvelopeStepper",
     "jacobian"),
)


def _dae_classes():
    """Every DAE class whose own ``*_batch`` methods make up ``dae.eval``."""
    from repro.dae.base import SemiExplicitDAE
    from repro.dae.ensemble import EnsembleDAE
    from repro.kernels.sweep import KernelizedDAE

    found, todo = [], [SemiExplicitDAE]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found + [EnsembleDAE, KernelizedDAE]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.unit = None
        self.units = {}
        self._local = threading.local()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _thread(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], set())
        return state

    def begin(self, name):
        """Open a span; returns its index, or ``None`` when ``name`` is
        already open on this thread."""
        stack, open_names = self._thread()
        if name in open_names:
            return None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           stack[-1] if stack else None, self.unit])
        stack.append(index)
        open_names.add(name)
        return index

    def end(self, index, name=None):
        if index is None:
            return
        span = self.spans[index]
        span[2] = perf_counter()
        stack, open_names = self._thread()
        stack.pop()
        open_names.discard(span[0])
        if name is not None:
            span[0] = name

    def count(self, key, value):
        self.counts[(self.unit, key)] += value

    def begin_unit(self, unit):
        self.unit = unit
        self.units[unit] = [perf_counter(), None]

    def end_unit(self):
        self.units[self.unit][1] = perf_counter()
        self.unit = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, func):
        begin, end = self.begin, self.end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                end(index)

        return traced

    def _wrap_solver_core(self, func):
        begin, end, count = self.begin, self.end, self.count

        @functools.wraps(func)
        def traced(core, *args, **kwargs):
            stats = core.stats
            before = (stats.solves, stats.iterations, stats.factorizations,
                      stats.fallbacks)
            index = begin("linalg.solver_core.solve")
            try:
                return func(core, *args, **kwargs)
            finally:
                end(index)
                if index is not None:
                    count("solves", stats.solves - before[0])
                    count("iterations", stats.iterations - before[1])
                    count("factorizations",
                          stats.factorizations - before[2])
                    count("fallbacks", stats.fallbacks - before[3])

        return traced

    def _wrap_reusable_lu(self, func):
        """``ReusableLUSolver.__call__`` is a factorisation when its own
        ``stats["factorizations"]`` moved, a back-solve otherwise."""
        begin, end = self.begin, self.end

        @functools.wraps(func)
        def traced(solver, *args, **kwargs):
            before = solver.stats["factorizations"]
            index = begin("linalg.lu_cache.solve")
            try:
                return func(solver, *args, **kwargs)
            finally:
                factored = solver.stats["factorizations"] > before
                end(index, "linalg.lu_cache.factor" if factored else None)

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        for name, module_name, attribute in FUNCTIONS:
            original = getattr(importlib.import_module(module_name),
                               attribute)
            wrapper = self._wrap(name, original)
            for module_key, module in list(sys.modules.items()):
                if not module_key.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, attribute in CALL_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attribute,
                        self._wrap(name, getattr(module, attribute)))
        for name, module_name, class_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))
        from repro.linalg.lu_cache import ReusableLUSolver
        from repro.linalg.solver_core import SolverCore

        self._patch(SolverCore, "solve",
                    self._wrap_solver_core(vars(SolverCore)["solve"]))
        self._patch(ReusableLUSolver, "__call__",
                    self._wrap_reusable_lu(vars(ReusableLUSolver)["__call__"]))
        for cls in _dae_classes():
            for method in DAE_EVAL_METHODS:
                if method in vars(cls):
                    self._patch(cls, method,
                                self._wrap("dae.eval", vars(cls)[method]))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- export ----------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "unit": unit}
                ) + "\n")


# -- span arithmetic ----------------------------------------------------

def covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if b > start and a < end
    )
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """Self time of each span: duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1])
        - covered(children.get(index, ()), span[1], span[2])
        for index, span in enumerate(spans)
    ]


def uncovered_time(spans, units):
    """Per unit, the wall time that no root span of the unit covers.

    ``units`` maps unit identifiers to ``(start, end)``; returns
    ``{unit: (wall, uncovered)}``.
    """
    roots = defaultdict(list)
    for span in spans:
        if span[3] is None and span[4] is not None:
            roots[span[4]].append((span[1], span[2]))
    out = {}
    for unit, (start, end) in units.items():
        wall = end - start
        out[unit] = (wall, wall - covered(roots.get(unit, ()), start, end))
    return out


# -- pool worker side ---------------------------------------------------

def worker_init(trace_dir):
    """Pool initializer: trace this worker and dump each job's spans."""
    import repro.service.workers as workers

    tracer = Tracer()
    tracer.install()
    original = workers.execute_payload
    path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
    seq = 0

    @functools.wraps(original)
    def traced_execute(*args, **kwargs):
        nonlocal seq
        tracer.unit = seq
        index = tracer.begin(WORKER_JOB)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(index)
            record = {
                "seq": seq,
                "spans": tracer.spans,
                "counts": [[key, value] for (_, key), value
                           in tracer.counts.items()],
            }
            with open(path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
            tracer.spans = []
            tracer.counts = defaultdict(float)
            seq += 1

    workers.execute_payload = traced_execute


def read_worker_jobs(trace_dir):
    """Every job record the pool workers wrote, in run order."""
    jobs = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("worker-") and entry.endswith(".jsonl"):
            with open(os.path.join(trace_dir, entry)) as handle:
                jobs.extend(json.loads(line) for line in handle)
    return sorted(jobs, key=lambda job: job["seq"])
