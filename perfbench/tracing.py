"""Per-layer wall-clock accounting for one traced wbpsim run.

The tracer wraps public entry points of the simulator's modules from the
outside and puts the originals back when it exits, so nothing under ``src/``
changes and an untraced run executes no tracing code at all.

Every wrapped call pushes a frame on one stack. When the call returns, its
duration is added to the enclosing frame, and its self time (duration minus
the time of the wrapped calls nested in it) to its key. Self times therefore
partition the traced interval exactly, in integer nanoseconds: the self times
of all keys sum to the durations of the outermost wrapped calls.

Coarse entry points are spans: each call is also kept in memory as a record
(key, event seq being handled, parent span, start, end). Hot leaves, such as
``DagInstance.is_ready``, only accumulate calls and time. Kernel leaves count
only inside a task body, so payload synthesis during set-up stays in
``spawn_threads``.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from wbpsim import config, dag, kernels, machine, scheduler, workload

SPAN, COUNT, KERNEL = "span", "count", "kernel"

# (owner, attribute, key, kind)
ENTRY_POINTS = (
    (config, "load_config", "config.load_config", SPAN),
    (config, "apply_overrides", "config.load_config", SPAN),
    (workload, "build_tx_dag", "workload.build_dag", SPAN),
    (workload, "build_rx_dag", "workload.build_dag", SPAN),
    (workload, "spawn_threads", "workload.spawn_threads", SPAN),
    (scheduler.System, "run", "machine.engine", SPAN),
    (scheduler.System, "handle", "scheduler.handle", SPAN),
    (scheduler.System, "execute_body", "kernels.bodies", SPAN),
    (scheduler.System, "cost_of", "costmodel.kernel_cycles", COUNT),
    (scheduler.MainScheduler, "evaluate", "scheduler.main.evaluate", SPAN),
    (scheduler.ClusterScheduler, "scan", "scheduler.cluster.scan", SPAN),
    (scheduler.ClusterScheduler, "complete_task",
     "scheduler.cluster.complete_task", SPAN),
    (scheduler.ClusterScheduler, "start_retrieval",
     "scheduler.cluster.start_retrieval", SPAN),
    (scheduler.ClusterScheduler, "retry_stalled",
     "scheduler.cluster.retry_stalled", SPAN),
    (machine.Machine, "check_invariants", "machine.check_invariants", SPAN),
    (machine.SpmSection, "would_fit", "machine.spm.would_fit", COUNT),
    (machine.SpmSection, "alloc", "machine.spm.alloc", COUNT),
    (machine.SpmSection, "free_region", "machine.spm.free_region", COUNT),
    (machine.SpmSection, "offset_of", "machine.spm.offset_of", COUNT),
    (machine.DmaEngine, "reserve", "machine.dma.reserve", COUNT),
    (dag.DagInstance, "is_ready", "dag.is_ready", COUNT),
    (dag.DagInstance, "push_token", "dag.push_token", COUNT),
    (dag.DagInstance, "pop_inputs", "dag.pop_inputs", COUNT),
    (dag.DagInstance, "set_state", "dag.set_state", COUNT),
    (dag.DagInstance, "apply_dismissal", "dag.apply_dismissal", COUNT),
    (dag.DagInstance, "is_complete", "dag.is_complete", COUNT),
    (kernels, "bp_decode", "kernels.bp_decode", KERNEL),
    (kernels, "fft", "kernels.fft", KERNEL),
)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_ns: list[int] = []
        self.span_key = array("i")
        self.span_seq = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # [time of nested wrapped calls, index of the enclosing span]
        self._frames: list[list[int]] = [[0, -1]]
        self.seq = -1
        self.in_body = False
        self.dma_busy: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- results --------------------------------------------------------------

    def root_ns(self) -> int:
        """Summed duration of the outermost wrapped calls so far."""
        return self._frames[0][0]

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """key -> (calls, self nanoseconds, calls that raised)."""
        return {key: (self.calls[i], self.self_ns[i], self.errors[i])
                for i, key in enumerate(self.keys)}

    def spans(self, key: str):
        """(seq, parent, start, end) of every recorded span of ``key``."""
        k = self.keys.index(key)
        return [(self.span_seq[i], self.span_parent[i], self.span_start[i],
                 self.span_end[i])
                for i in range(len(self.span_key)) if self.span_key[i] == k]

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, key, kind in ENTRY_POINTS:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, self._index(key), kind)
            if attr == "handle":
                wrapper = self._tag_seq(wrapper)
            elif attr == "execute_body":
                wrapper = self._mark_body(wrapper)
            elif attr == "reserve":
                wrapper = self._dma_busy(wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _index(self, key: str) -> int:
        if key not in self.keys:
            self.keys.append(key)
            self.calls.append(0)
            self.errors.append(0)
            self.self_ns.append(0)
        return self.keys.index(key)

    def _wrap(self, fn, k: int, kind: str):
        frames, clock = self._frames, self.clock
        calls, errors, self_ns = self.calls, self.errors, self.self_ns

        if kind != SPAN:
            gated = kind == KERNEL

            def counter(*args, **kwargs):
                if gated and not self.in_body:
                    return fn(*args, **kwargs)
                frame = [0, frames[-1][1]]
                frames.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[k] += 1
                    raise
                finally:
                    duration = clock() - start
                    frames.pop()
                    frames[-1][0] += duration
                    calls[k] += 1
                    self_ns[k] += duration - frame[0]
            return counter

        span_key, span_seq, span_parent = self.span_key, self.span_seq, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def span(*args, **kwargs):
            index = len(span_key)
            span_key.append(k)
            span_seq.append(self.seq)
            span_parent.append(frames[-1][1])
            span_start.append(0)
            span_end.append(0)
            frame = [0, index]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                end = clock()
                frames.pop()
                frames[-1][0] += end - start
                calls[k] += 1
                self_ns[k] += end - start - frame[0]
                span_start[index] = start
                span_end[index] = end
        return span

    def _tag_seq(self, wrapped):
        def handle(system, event):
            self.seq = event.seq
            return wrapped(system, event)
        return handle

    def _mark_body(self, wrapped):
        def execute_body(system, spec, tokens, thread):
            self.in_body = True
            try:
                return wrapped(system, spec, tokens, thread)
            finally:
                self.in_body = False
        return execute_body

    def _dma_busy(self, wrapped):
        busy = self.dma_busy

        def reserve(engine, request_time, nbytes):
            start, done = wrapped(engine, request_time, nbytes)
            busy[engine.name] += done - start
            return start, done
        return reserve
