"""Span recording around the public calls into each layer of ``repro``.

A traced program process (the server launcher or the stock-tenants driver)
calls :func:`install` before it runs: every function in :data:`TARGETS` is
replaced, where its caller looks it up, by a wrapper that records one span
``(id, parent id, name, start, end, request id, thread, value)``.  The
parent is the innermost open span on the same thread; the request id comes
from the process's ``rid_source`` (the server's ``X-Repro-Trace-Id``
context).  Spans stay in memory until :meth:`SpanRecorder.dump`.

Spans inside fork-pool children are recorded into the child's copy of the
recorder and lost with it, so ``run_in_fork_pool`` counts as one block.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List

#: (span name, module, attribute path, layer).  Module-level functions are
#: patched in the module that *calls* them, so the program's own lookup
#: finds the wrapper; methods are patched on their class.
TARGETS = [
    ("loads", "repro.serve.app", "loads", "serve.decode"),
    ("dumps", "repro.serve.app", "dumps", "serve.encode"),
    ("encode_range_answer", "repro.serve.app", "encode_range_answer", "serve.encode"),
    ("encode_group_answers", "repro.serve.app", "encode_group_answers", "serve.encode"),
    ("encode_block_key", "repro.serve.app", "encode_block_key", "serve.encode"),
    ("admit", "repro.serve.app", "AdmissionGate.admit", None),
    ("parse", "repro.serve.app", "parse_aggregation_query", "query.parse"),
    ("parse", "repro.query.parser", "parse_aggregation_query", "query.parse"),
    ("trace_record", "repro.obs.buffer", "TraceBuffer.record", "obs.trace"),
    ("cost_observe", "repro.obs.cost", "CostTable.observe", "obs.cost"),
    ("cost_rollup", "repro.serve.app", "cost_rollup", "obs.cost"),
    ("request_finished", "repro.serve.metrics", "ServerMetrics.request_finished", "obs.metrics"),
    ("compile", "repro.engine.engine", "ConsistentAnswerEngine.compile", "engine.plan.compile"),
    ("glb_for_binding", "repro.core.evaluator", "OperationalRangeEvaluator.glb_for_binding", "core.rewriting"),
    ("minmax_glb", "repro.core.minmax", "MinMaxRangeEvaluator.glb", "core.rewriting"),
    ("minmax_lub", "repro.core.minmax", "MinMaxRangeEvaluator.lub", "core.rewriting"),
    ("bnb_glb", "repro.baselines.branch_and_bound", "BranchAndBoundSolver.glb", "baselines.bnb"),
    ("bnb_lub", "repro.baselines.branch_and_bound", "BranchAndBoundSolver.lub", "baselines.bnb"),
    ("bnb_extremum", "repro.baselines.branch_and_bound", "BranchAndBoundSolver.extremum", "baselines.bnb"),
    ("shard_plan", "repro.engine.sharding", "ShardPlanner.plan", "engine.sharding.plan"),
    ("summarize_shard", "repro.engine.sharding", "summarize_shard", "engine.sharding.summarize"),
    ("summarize_shard_groups", "repro.engine.sharding", "summarize_shard_groups", "engine.sharding.summarize"),
    ("merge_shard_answers", "repro.engine.sharding", "merge_shard_answers", "engine.sharding.merge"),
    ("merge_group_answers", "repro.engine.sharding", "merge_group_answers", "engine.sharding.merge"),
    ("finalize_answer", "repro.engine.sharding", "finalize_answer", "engine.sharding.merge"),
    ("finalize_group_answers", "repro.engine.sharding", "finalize_group_answers", "engine.sharding.merge"),
    ("fork_pool", "repro.engine.batch", "run_in_fork_pool", "engine.batch.fork"),
    ("pool_answer", "repro.engine.workers", "WorkerPool.answer", "engine.workers.ipc"),
    ("pool_summarize", "repro.engine.workers", "WorkerPool.summarize_shards", "engine.workers.ipc"),
    ("registry_mutate", "repro.serve.registry", "InstanceRegistry.mutate", "serve.registry.mutate"),
    ("instance_copy", "repro.datamodel.instance", "DatabaseInstance.copy", "datamodel.copy"),
    ("from_rows", "repro.datamodel.instance", "DatabaseInstance.from_rows", "datamodel.ingest"),
    ("log_append", "repro.store.log", "FactLog.append_batch", "store.append"),
    ("store_compact", "repro.store.store", "InstanceStore.compact", "store.compact"),
    ("store_open_all", "repro.store.store", "InstanceStore.open_all", "store.replay"),
]

#: Span name -> layer; ``admit`` opens the dispatch wait and is no layer.
LAYER_OF: Dict[str, str] = {name: layer for name, _m, _a, layer in TARGETS if layer}

#: Span names whose value is the size of the instance they were handed.
_INSTANCE_ARG = {"glb_for_binding", "minmax_glb", "minmax_lub"}


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class SpanRecorder:
    """In-memory span list with a per-thread stack of open spans."""

    def __init__(self, rid_source: Callable[[], object] = lambda: None) -> None:
        self.spans: List[tuple] = []
        self.fsyncs: List[tuple] = []  # (time, request id)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rid_source = rid_source

    def _rid(self):
        # The server encodes a response after the request's trace context
        # has closed; the event loop does so before switching to another
        # request, so the thread's last request id is the right one.
        rid = self._rid_source()
        if rid is None:
            return getattr(self._local, "last_rid", None)
        self._local.last_rid = rid
        return rid

    def wrap(self, name: str, fn: Callable) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            rid = self._rid()
            before = _file_size(args[0].path) if name == "log_append" else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = 0
            if name in _INSTANCE_ARG:
                value = len(args[1])
            elif name == "log_append":
                value = _file_size(args[0].path) - before
            elif name == "store_compact":
                path = args[0].snapshot_path(args[1])
                value = _file_size(path) if path else 0
            spans.append(
                (sid, parent, name, start, end, rid, threading.get_ident(), value)
            )
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_fsyncs(self, fsync: Callable) -> Callable:
        def counted(fd):
            self.fsyncs.append((time.perf_counter(), self._rid()))
            return fsync(fd)

        return counted

    def dump(self, path: str) -> None:
        """Write the spans out atomically (a reader sees all or nothing)."""
        payload = {
            "main_thread": threading.main_thread().ident,
            "spans": list(self.spans),
            "fsyncs": list(self.fsyncs),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def install(recorder: SpanRecorder, targets=TARGETS) -> None:
    """Replace every target by its recording wrapper; call once per process."""
    for name, module_name, attr_path, _layer in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, recorder.wrap(name, raw))
    os.fsync = recorder.count_fsyncs(os.fsync)
