"""Long-lived engine worker processes: the process pool behind the serving layer.

Without a pool, the batch executor spins up a fresh ``ProcessPoolExecutor``
per call (every call pays process start-up, cold plan caches, and a
re-pickle of the database per chunk) and the sharded executor summarises
in-process.  :class:`WorkerPool` is the one long-lived process path, in the
executor-pool shape every production database serving stack uses:

* each worker process holds a **persistent**
  :class:`~repro.engine.engine.ConsistentAnswerEngine` — its plan cache, the
  process-wide SQL memo and the shard-plan cache stay warm across requests;
* databases are transferred **once**: :meth:`WorkerPool.ref_for` pickles an
  instance a single time into the pool's disk spool and hands out a thin
  :class:`InstanceRef` — N workers read one file instead of receiving N
  pickles, job payloads never carry the database, and workers keep the
  loaded instance resident keyed by (key, version) until it is
  invalidated or replaced; a write ships as a fact delta that resident
  copies fast-forward through (:meth:`WorkerPool.apply_named_delta`);
* three job kinds cover the engine's CPU-bound surface — single answers
  (closed or GROUP BY), ``answer_many`` chunks, and summarisation of the
  shards the caller's summary cache missed; every job goes to the worker
  with the fewest jobs in flight, so a worker wedged on a slow job gets no
  new work while another is idle;
* workers that crash are respawned and their in-flight jobs are retried
  once on the fresh process; a job that crashes its worker twice fails with
  a :class:`WorkerCrashError` instead of hanging the caller.

The pool attaches to an engine via
:meth:`~repro.engine.engine.ConsistentAnswerEngine.set_worker_pool`; the
batch executor (:mod:`repro.engine.batch`) then submits to it instead of
forking, the sharded executor (:mod:`repro.engine.sharding`) sends it its
summary-cache misses, and ``repro.serve`` exposes the whole thing as the
opt-in ``--workers N`` mode.

Transport is one job pipe and one result pipe per worker: per-worker job
pipes let the parent pick each job's worker and count its queue depth, and
per-worker result pipes mean a killed worker can never corrupt a queue
shared with its siblings — the collector thread multiplexes over every
result pipe *and* every process sentinel, so a crash is observed the moment
it happens.  A worker exits on a ``None`` job (:meth:`WorkerPool.shutdown`)
or at EOF on its job pipe, which is what ends it when the pool's process
dies without a shutdown.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, replace as dataclass_replace
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datamodel.instance import DatabaseInstance
from repro.engine.cancellation import (
    active_deadline,
    check_cancelled,
    deadline_token,
    token_scope,
)
from repro.exceptions import ReproError
from repro.obs.caches import cache_report, register_cache
from repro.obs.cost import add_cost
from repro.obs.log import get_logger
from repro.obs.trace import remote_root, span as obs_span
from repro.query.aggregation import AggregationQuery
from repro.util import stable_hash_64

_LOG = get_logger("workers")


#: Job kinds an abandoned request may cancel.  Bookkeeping jobs
#: ("invalidate", "ping") must run even when submitted from a request whose
#: deadline just expired — a skipped invalidation would leave a worker
#: serving a stale resident instance long after the request is gone.
_CANCELLABLE_KINDS = frozenset({"answer", "chunk", "shards"})

#: Retries a job gets after crashing its worker, each on the respawned process.
_MAX_RETRIES = 1

#: Ceiling on the total ops a named ref's delta chain may accumulate before
#: :meth:`WorkerPool.apply_named_delta` falls back to a full re-pickle: past
#: it, replaying the chain on a cold worker costs more than re-reading a
#: fresh spool file.
_DELTA_MAX_OPS = 256

#: Boot start method: ``fork`` where available (cheap, inherits the
#: imported library), else the platform default.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


class WorkerPoolError(ReproError):
    """Base class for worker-pool failures (maps to a structured 500)."""


class WorkerCrashError(WorkerPoolError):
    """A job crashed its worker and exhausted its retry budget."""


# -- instance references ----------------------------------------------------------------


@dataclass(frozen=True)
class InstanceRef:
    """A pickled-once handle to a database, shippable to every worker.

    ``key`` identifies the logical instance (registration name or an
    auto-generated token) and ``version`` increments on replacement or
    observed mutation.  The pickle itself lives in the pool's disk spool
    (``spool_path``), written by :meth:`WorkerPool.ref_for`: job payloads
    carry only this thin record, a worker reads the file once per version
    on a residency miss, and a respawned worker can always re-load from
    disk.
    """

    key: str
    version: int
    size: int
    spool_path: str
    #: The instance's mutation token at pickling time; guards parent-side
    #: ref reuse against in-place mutation (a bare size check would be
    #: fooled by a remove+add of the same cardinality).
    data_version: int = 0
    #: Fact-delta chain over the spooled base: a tuple of
    #: ``(base_data_version, ((kind, fact), ...))`` segments, each applying
    #: on an instance whose ``data_version`` equals the segment base.  A
    #: worker already holding the base (or any intermediate version)
    #: resident fast-forwards in place instead of re-reading the spool; a
    #: cold worker replays the whole chain after loading the base.
    delta: Optional[Tuple[Tuple[int, Tuple[Tuple[str, object], ...]], ...]] = None

    def load(self) -> DatabaseInstance:
        """Unpickle the spooled instance and replay any delta chain."""
        with open(self.spool_path, "rb") as handle:
            instance = pickle.load(handle)
        for base_version, ops in self.delta or ():
            if instance.data_version != base_version:
                raise WorkerPoolError(
                    f"delta chain for {self.key!r} expects base "
                    f"{base_version}, spool is at {instance.data_version}"
                )
            _apply_delta_ops(instance, ops)
        return instance


def _apply_delta_ops(instance: DatabaseInstance, ops: Sequence[Tuple[str, object]]) -> None:
    """Replay one delta segment's ``(kind, fact)`` ops on ``instance``."""
    for kind, fact in ops:
        if kind == "add":
            instance.add_fact(fact)
        elif kind == "remove":
            instance.remove_fact(fact)
        else:
            raise WorkerPoolError(f"unknown delta op kind {kind!r}")


def _fast_forward(instance: DatabaseInstance, ref: InstanceRef) -> Optional[DatabaseInstance]:
    """Advance a resident instance through ``ref``'s delta chain in place.

    Returns the instance when it reaches exactly ``ref``'s state, else
    ``None`` (stale base, broken chain, or an op that does not apply) — the
    caller then falls back to a full spool load, which also discards any
    partial mutation this attempt made.
    """
    chain = ref.delta or ()
    start = None
    for index, (base_version, _ops) in enumerate(chain):
        if base_version == instance.data_version:
            start = index
            break
    if start is None:
        return None
    for base_version, ops in chain[start:]:
        if instance.data_version != base_version:
            return None
        try:
            _apply_delta_ops(instance, ops)
        except Exception:  # noqa: BLE001 — any misapplied op voids the fast path
            return None
    if instance.data_version != ref.data_version or len(instance) != ref.size:
        return None
    return instance


# -- the worker process -----------------------------------------------------------------


def _encode_failure(exc: BaseException) -> Tuple[str, object]:
    """Serialize a worker-side exception, preserving its type when possible.

    The original exception class matters at the parent: the serving layer
    classifies it into an HTTP status, and a client error (``ParseError``,
    ``QueryError``) must stay a 400 in worker mode exactly as in thread
    mode.  Exceptions that do not survive a pickle round-trip degrade to a
    typed text form that the parent wraps in :class:`WorkerPoolError`.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickle", blob)
    except Exception:  # noqa: BLE001 — any serialization failure degrades
        return ("text", (type(exc).__name__, str(exc)))


def _decode_failure(payload: Tuple[str, object]) -> BaseException:
    form, data = payload
    if form == "pickle":
        try:
            exc = pickle.loads(data)
            if isinstance(exc, BaseException):
                return exc
        except Exception:  # noqa: BLE001 — fall through to the typed wrapper
            pass
        return WorkerPoolError("worker job failed with an undecodable error")
    error_type, error_message = data
    return WorkerPoolError(f"worker job failed: {error_type}: {error_message}")


def _worker_stats(
    engine,
    resident: Dict,
    counters: Dict[str, int],
    residency: Optional[Dict[str, Dict[str, int]]] = None,
) -> Dict[str, object]:
    cache = engine.cache_stats()
    return {
        **counters,
        "plan_cache": {"hits": cache.hits, "misses": cache.misses, "size": cache.size},
        "resident_instances": len(resident),
        "residency_by_key": {k: dict(v) for k, v in (residency or {}).items()},
    }


def _worker_main(
    worker_id: int, engine_config: dict, job_conn, result_conn, parent_ends
) -> None:
    """Worker entry point: serve jobs until the job pipe closes.

    ``parent_ends`` are the pool-side pipe ends a forked worker inherited:
    its own and those of every sibling started before it.  They are closed
    first, or this worker would hold its own job pipe open and never see
    EOF after the pool's process dies.
    """
    for conn in parent_ends:
        conn.close()
    from repro.engine.batch import _answer_one
    from repro.engine.engine import AnswerOptions, ConsistentAnswerEngine
    from repro.engine.sharding import (
        ShardPlanner,
        _cached_shard_plan,
        summarize_planned_shard,
    )

    engine = ConsistentAnswerEngine(**(engine_config or {}))
    resident: Dict[str, Tuple[int, DatabaseInstance]] = {}
    counters: Dict[str, int] = {
        "jobs": 0,
        "answer_jobs": 0,
        "chunk_jobs": 0,
        "shard_jobs": 0,
        "instance_loads": 0,
        "resident_hits": 0,
        "delta_applies": 0,
        "delta_fallbacks": 0,
    }
    # Per-instance residency attribution (ref keys are registry names for
    # named instances), shipped back on every result for the cache registry.
    residency: Dict[str, Dict[str, int]] = {}

    def _residency(key: str) -> Dict[str, int]:
        return residency.setdefault(key, {"hits": 0, "misses": 0})

    def resolve(ref: InstanceRef) -> DatabaseInstance:
        entry = resident.get(ref.key)
        if entry is not None and entry[0] == ref.version:
            counters["resident_hits"] += 1
            _residency(ref.key)["hits"] += 1
            return entry[1]
        if entry is not None and ref.delta:
            with obs_span(
                "worker.delta_apply", key=ref.key, version=ref.version
            ) as delta_span:
                advanced = _fast_forward(entry[1], ref)
                if delta_span is not None:
                    delta_span.set_tag(
                        "outcome", "applied" if advanced is not None else "fallback"
                    )
            if advanced is not None:
                resident[ref.key] = (ref.version, advanced)
                counters["delta_applies"] += 1
                _residency(ref.key)["hits"] += 1
                return advanced
            counters["delta_fallbacks"] += 1
        with obs_span("worker.instance_load", key=ref.key, version=ref.version):
            resident[ref.key] = (ref.version, ref.load())
        counters["instance_loads"] += 1
        _residency(ref.key)["misses"] += 1
        return resident[ref.key][1]

    def handle(kind: str, payload: tuple) -> object:
        if kind == "answer":
            ref, query, binding, shards = payload
            counters["answer_jobs"] += 1
            instance = resolve(ref)
            options = AnswerOptions(shards=shards)
            if query.free_variables and binding is None:
                return engine.answer_group_by(query, instance, options)
            return engine.answer(query, instance, binding or {}, options)
        if kind == "chunk":
            (items,) = payload
            counters["chunk_jobs"] += 1
            return [
                _answer_one(engine, query, resolve(ref), index)
                for index, query, ref in items
            ]
        if kind == "shards":
            ref, query, shards, strategy, indices, binding, grouped = payload
            counters["shard_jobs"] += 1
            instance = resolve(ref)
            plan = engine.compile(query)
            shard_plan = _cached_shard_plan(
                ShardPlanner(strategy), plan, instance, shards
            )
            if len(shard_plan.shards) != shards:
                raise WorkerPoolError(
                    f"worker partition has {len(shard_plan.shards)} shards, "
                    f"parent expected {shards}"
                )
            # No summary cache here: the dispatching process looked every
            # shard up before sending only its misses, and stores the results.
            summaries = []
            for index in indices:
                check_cancelled()
                summaries.append(
                    summarize_planned_shard(
                        plan, shard_plan, index, instance.schema, binding, grouped
                    )
                )
            return summaries
        if kind == "invalidate":
            (key,) = payload
            return resident.pop(key, None) is not None
        if kind == "ping":
            return "pong"
        if kind == "sleep":  # diagnostic hook: deterministic mid-job crashes in tests
            (seconds,) = payload
            time.sleep(seconds)
            return seconds
        raise WorkerPoolError(f"unknown job kind {kind!r}")

    while True:
        try:
            job = job_conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        job_id, kind, payload, trace_ctx, deadline = job
        # The worker's spans hang off a local root parented on the span id
        # shipped with the job; the finished tree rides the result message
        # back and is re-parented under the dispatching span client-side.
        root_span = None
        started_cpu = time.thread_time()
        try:
            with remote_root(f"worker.{kind}", trace_ctx, worker=worker_id) as root_span:
                # A deadline-only token: the parent's cancel flag cannot
                # reach this process, but the monotonic clock is
                # system-wide, so expiry is observed here all the same.
                with token_scope(deadline_token(deadline)):
                    check_cancelled()
                    ok, result = True, handle(kind, payload)
            counters["jobs"] += 1
        except BaseException as exc:  # noqa: BLE001 — every failure becomes a message
            ok, result = False, _encode_failure(exc)
        message = (
            job_id,
            ok,
            result,
            # The job's CPU rides back: the dispatching request counts it.
            (time.thread_time() - started_cpu) * 1000.0,
            _worker_stats(engine, resident, counters, residency),
            [root_span.to_dict()] if root_span is not None else [],
        )
        try:
            result_conn.send(message)
        except (BrokenPipeError, OSError):
            break


# -- the pool ---------------------------------------------------------------------------


class _JobFuture(Future):
    """A job's future; ``cpu_ms`` is the worker CPU the job cost, set
    before the future resolves."""

    cpu_ms = 0.0


@dataclass
class _PendingJob:
    """Parent-side bookkeeping for one submitted, unresolved job."""

    job_id: int
    kind: str
    payload: tuple
    future: _JobFuture
    worker_index: int
    generation: int
    attempts: int = 0
    #: ``time.monotonic`` deadline of the dispatching request, shipped with
    #: the job so the worker process self-aborts once the client is gone
    #: (the parent's cancel flag cannot cross the process boundary).
    deadline: Optional[float] = None
    #: The dispatching span worker-side spans re-parent under (or None).
    parent_span: Optional[object] = None

    @property
    def trace_ctx(self) -> Optional[Tuple[str, str]]:
        span = self.parent_span
        # Head-dropped traces ship no context: the worker would record and
        # serialize spans for a trace the sampler already decided against.
        if span is None or not getattr(span, "sampled", True):
            return None
        return (span.trace_id, span.span_id)


class _WorkerHandle:
    """One worker process plus its pipes and parent-side counters.

    ``siblings`` are the running handles whose pipe ends a forked child
    inherits; a spawned child starts with only the ends it is handed.
    """

    def __init__(
        self,
        index: int,
        generation: int,
        context,
        engine_config: dict,
        siblings: Sequence["_WorkerHandle"] = (),
    ) -> None:
        self.index = index
        self.generation = generation
        job_recv, job_send = context.Pipe(duplex=False)
        result_recv, result_send = context.Pipe(duplex=False)
        self.job_conn = job_send
        self.result_conn = result_recv
        self.send_lock = threading.Lock()
        self.stats: Dict[str, object] = {}
        parent_ends = []
        if context.get_start_method() == "fork":
            parent_ends = [job_send, result_recv]
            for sibling in siblings:
                parent_ends += [sibling.job_conn, sibling.result_conn]
        self.process = context.Process(
            target=_worker_main,
            args=(index, engine_config, job_recv, result_send, parent_ends),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        self.process.start()
        # The child owns these ends now; closing the parent copies makes the
        # child's death observable as EOF on ``result_conn``.
        job_recv.close()
        result_send.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """A fixed-size pool of long-lived engine worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.
    engine_config:
        Constructor kwargs for each worker's persistent engine (typically
        ``engine.config()`` of the engine the pool attaches to).
    """

    def __init__(
        self,
        workers: int = 2,
        engine_config: Optional[dict] = None,
    ) -> None:
        self._size = max(1, int(workers))
        self._engine_config = dict(engine_config or {})
        self._delta_ships = 0
        self._delta_reships = 0
        self._context = multiprocessing.get_context(_START_METHOD)
        # Crash replacements never fork: at boot the process is quiescent,
        # but a respawn happens under full traffic, where a forked child
        # could inherit a module-level lock (plan cache, SQL memo, shard
        # plans) held mid-acquire by a serving thread and deadlock on its
        # first job.  ``spawn`` pays a fresh-interpreter start-up only on
        # the rare crash path.
        self._respawn_context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: List[_WorkerHandle] = []
        self._pending: Dict[int, _PendingJob] = {}
        self._job_ids = itertools.count(1)
        self._generations = itertools.count(1)
        self._started = False
        self._closed = False
        self._collector: Optional[threading.Thread] = None
        self._spool_dir: Optional[str] = None
        self._restarts = 0
        self._retries = 0
        self._jobs_submitted = 0
        # Instance-ref bookkeeping.  The identity index maps id(instance) to
        # its current ref — identity, not equality, because a mutated
        # instance must keep its key and bump its version; a weak finalizer
        # drops the entry when the database dies, and the paired weakref
        # guards against CPython id reuse serving a stale pickle.  Named
        # refs additionally survive object replacement with a version bump
        # (and are also entered in the identity index, so anonymous lookups
        # of a registered object reuse the named ref instead of re-pickling
        # it under a second key).
        self._ref_lock = threading.Lock()
        self._spool_lock = threading.Lock()
        self._identity_refs: Dict[int, Tuple[weakref.ref, InstanceRef]] = {}
        self._named_refs: Dict[str, Tuple[weakref.ref, InstanceRef]] = {}
        self._retired_spools: Dict[str, str] = {}
        self._auto_keys = itertools.count(1)

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the workers and the collector thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise WorkerPoolError("worker pool is shut down")
            if self._started:
                return self
            if self._spool_dir is None:  # refs may have been built pre-start
                self._spool_dir = tempfile.mkdtemp(prefix="repro-pool-")
            handles: List[_WorkerHandle] = []
            for index in range(self._size):
                handles.append(
                    _WorkerHandle(
                        index,
                        next(self._generations),
                        self._context,
                        self._engine_config,
                        siblings=handles,
                    )
                )
            self._handles = handles
            self._started = True
            self._collector = threading.Thread(
                target=self._collect_loop, name="repro-pool-collector", daemon=True
            )
            self._collector.start()
        # Unified cache telemetry: the newest running pool owns the
        # "worker_spool" name; a closed (or collected) pool's provider
        # returns None and is skipped, so no unregister on shutdown.
        pool_ref = weakref.ref(self)
        register_cache(
            "worker_spool",
            lambda: (
                pool.spool_report() if (pool := pool_ref()) is not None else None
            ),
        )
        return self

    def shutdown(self) -> None:
        """Stop every worker and fail outstanding jobs (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            pending = list(self._pending.values())
            self._pending.clear()
        for handle in handles:
            try:
                with handle.send_lock:
                    handle.job_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            for conn in (handle.job_conn, handle.result_conn):
                try:
                    conn.close()
                except OSError:
                    pass
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        for job in pending:
            if not job.future.done():
                job.future.set_exception(WorkerPoolError("worker pool is shut down"))
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_running(self) -> bool:
        with self._lock:
            return self._started and not self._closed

    def worker_pids(self) -> List[Optional[int]]:
        with self._lock:
            return [handle.pid for handle in self._handles]

    # -- instance references ------------------------------------------------------------

    def _build_ref(
        self,
        key: str,
        version: int,
        instance: DatabaseInstance,
        replaces: Optional[InstanceRef] = None,
    ) -> InstanceRef:
        """Pickle ``instance`` once into the disk spool and return the thin ref.

        Job payloads only ever carry the returned record (a few hundred
        bytes), never the pickle itself: workers read the spool file once
        per version on a residency miss, and a respawned worker re-loads
        from the same file.  Spool files retire on a grandfather schedule —
        building version ``v`` deletes version ``v-2``'s file, never the
        immediately replaced one, so an in-flight job holding the previous
        ref can still load it; disk usage stays at ≤2 pickles per key.
        """
        if self._closed:
            raise WorkerPoolError("worker pool is shut down")
        if self._spool_dir is None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-pool-")
        path = os.path.join(self._spool_dir, f"{stable_hash_64(key):016x}-{version}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(instance, handle, protocol=pickle.HIGHEST_PROTOCOL)
        grandparent = self._retired_spools.pop(key, None)
        if grandparent is not None and grandparent != path:
            try:
                os.unlink(grandparent)
            except OSError:
                pass
        if replaces is not None:
            self._retired_spools[key] = replaces.spool_path
        return InstanceRef(
            key=key,
            version=version,
            size=len(instance),
            spool_path=path,
            data_version=instance.data_version,
        )

    def _store_identity(self, instance: DatabaseInstance, ref: InstanceRef) -> None:
        ident = id(instance)
        cleanup = weakref.ref(
            instance, lambda _wr: self._identity_refs.pop(ident, None)
        )
        self._identity_refs[ident] = (cleanup, ref)

    def _fresh_ref(
        self, instance: DatabaseInstance, name: Optional[str]
    ) -> Optional[InstanceRef]:
        """The current ref when it is still valid for ``instance`` (caller
        holds ``_ref_lock``).  The weakref guard matters: a freed instance's
        id can be reused by a new allocation of the same cardinality, and a
        bare (id, size) check would then serve the *old* pickle."""
        entry = (
            self._identity_refs.get(id(instance))
            if name is None
            else self._named_refs.get(name)
        )
        if entry is not None:
            holder, ref = entry
            if (
                holder() is instance
                and ref.size == len(instance)
                and ref.data_version == instance.data_version
            ):
                return ref
        return None

    def ref_for(self, instance: DatabaseInstance, name: Optional[str] = None) -> InstanceRef:
        """The pickled-once handle for ``instance`` (registering on first use).

        This is the one way an instance enters the pool's spool.  Anonymous
        instances are keyed by object identity (the ref dies with the
        object) but reuse the named ref when the object is registered;
        named instances are keyed by ``name``, so a replacement database
        re-uses the key with a bumped version and workers drop the old
        resident copy.  A mutated instance (its ``data_version`` moved) is
        re-pickled under the next version, so workers can never serve a
        stale copy.

        Lock discipline: lookups only touch ``_ref_lock`` (briefly), while
        the pickle + disk write of a (re-)registration runs under
        ``_spool_lock`` alone — a request for an already-registered
        instance is never stalled behind another instance's pickling.
        """
        with self._ref_lock:
            ref = self._fresh_ref(instance, name)
            if ref is not None:
                return ref
        with self._spool_lock:
            with self._ref_lock:
                ref = self._fresh_ref(instance, name)
                if ref is not None:  # another thread built it meanwhile
                    return ref
                if name is None:
                    entry = self._identity_refs.get(id(instance))
                    old = (
                        entry[1]
                        if entry is not None and entry[0]() is instance
                        else None
                    )
                    key = (
                        old.key
                        if old is not None
                        else f"instance-{next(self._auto_keys)}"
                    )
                else:
                    key = name
                    entry = self._named_refs.get(name)
                    old = entry[1] if entry is not None else None
                version = old.version + 1 if old is not None else 1
            ref = self._build_ref(key, version, instance, replaces=old)
            with self._ref_lock:
                if name is not None:
                    self._named_refs[name] = (weakref.ref(instance), ref)
                self._store_identity(instance, ref)
            return ref

    def apply_named_delta(
        self,
        name: str,
        instance: DatabaseInstance,
        ops: Sequence[Tuple[str, object]],
    ) -> InstanceRef:
        """Advance a named ref by a fact delta instead of re-pickling.

        ``ops`` is the ``(kind, fact)`` sequence that carried the pool's
        latest version of ``name`` to ``instance`` — each op must have
        applied (bumped ``data_version`` by one), which is what the
        arithmetic guard checks.  When the delta chains cleanly and the
        accumulated chain stays within ``_DELTA_MAX_OPS``, the new ref
        shares the old spool file and workers holding the previous version
        resident fast-forward in place; otherwise the method falls back to
        a full re-pickle via :meth:`ref_for`.
        """
        ops = tuple((kind, fact) for kind, fact in ops)
        with self._ref_lock:
            entry = self._named_refs.get(name)
            old = entry[1] if entry is not None else None
        if old is not None and instance.data_version <= old.data_version:
            # Out-of-order ship: a newer (or identical) state already
            # reached the pool — keep it rather than regress the named ref.
            return old
        chained_ops = sum(len(segment) for _base, segment in (old.delta or ())) if old else 0
        if (
            old is None
            or not ops
            or old.data_version + len(ops) != instance.data_version
            or chained_ops + len(ops) > _DELTA_MAX_OPS
        ):
            self._delta_reships += 1
            return self.ref_for(instance, name=name)
        ref = dataclass_replace(
            old,
            version=old.version + 1,
            size=len(instance),
            data_version=instance.data_version,
            delta=(old.delta or ()) + ((old.data_version, ops),),
        )
        with self._ref_lock:
            self._named_refs[name] = (weakref.ref(instance), ref)
            self._store_identity(instance, ref)
        self._delta_ships += 1
        return ref

    def invalidate(self, name: str) -> None:
        """Drop a named instance from the pool and every worker's residency."""
        with self._ref_lock:
            self._named_refs.pop(name, None)
            stale = [
                ident
                for ident, (_holder, ref) in self._identity_refs.items()
                if ref.key == name
            ]
            for ident in stale:
                self._identity_refs.pop(ident, None)
        with self._lock:
            indices = [handle.index for handle in self._handles]
        for index in indices:
            try:
                self._submit(index, "invalidate", (name,))
            except WorkerPoolError:
                return

    # -- job submission -----------------------------------------------------------------

    def _ensure_running(self) -> None:
        if not self.is_running:
            raise WorkerPoolError("worker pool is not running")

    def _submit(
        self,
        worker_index: int,
        kind: str,
        payload: tuple,
        parent_span: Optional[object] = None,
    ) -> _JobFuture:
        future = _JobFuture()
        with self._lock:
            if not self._started or self._closed:
                raise WorkerPoolError("worker pool is not running")
            handle = self._handles[worker_index % self._size]
            job_id = next(self._job_ids)
            job = _PendingJob(
                job_id=job_id,
                kind=kind,
                payload=payload,
                future=future,
                worker_index=handle.index,
                generation=handle.generation,
                parent_span=parent_span,
                deadline=active_deadline() if kind in _CANCELLABLE_KINDS else None,
            )
            self._pending[job_id] = job
            self._jobs_submitted += 1
        self._send(handle, job)
        return future

    def _send(self, handle: _WorkerHandle, job: _PendingJob) -> None:
        try:
            with handle.send_lock:
                handle.job_conn.send(
                    (job.job_id, job.kind, job.payload, job.trace_ctx, job.deadline)
                )
        except (BrokenPipeError, OSError):
            # The worker died before (or while) receiving the job; the
            # collector's sentinel wakeup handles the respawn — here we only
            # make sure *this* job is retried or failed rather than lost.
            self._recover_worker(handle, extra_failed_job=job.job_id)

    def _least_busy_worker(self) -> int:
        with self._lock:
            inflight = [0] * self._size
            for job in self._pending.values():
                inflight[job.worker_index % self._size] += 1
            return min(range(self._size), key=lambda i: (inflight[i], i))

    # -- crash detection and recovery ---------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                handles = list(self._handles)
            waitables = []
            by_conn = {}
            by_sentinel = {}
            for handle in handles:
                waitables.append(handle.result_conn)
                by_conn[handle.result_conn] = handle
                try:
                    sentinel = handle.process.sentinel
                except ValueError:  # process already closed
                    continue
                waitables.append(sentinel)
                by_sentinel[sentinel] = handle
            try:
                ready = mp_connection.wait(waitables, timeout=0.1)
            except OSError:
                continue
            for item in ready:
                handle = by_conn.get(item)
                if handle is not None:
                    self._drain_results(handle)
                else:
                    self._recover_worker(by_sentinel[item])

    def _drain_results(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                if not handle.result_conn.poll():
                    return
                message = handle.result_conn.recv()
            except (EOFError, OSError):
                self._recover_worker(handle)
                return
            job_id, ok, payload, cpu_ms, stats, spans = message
            with self._lock:
                handle.stats = stats
                job = self._pending.pop(job_id, None)
            if job is None:  # resolved elsewhere (e.g. failed during recovery)
                continue
            # Graft the worker's spans *before* resolving the future: the
            # waiter closes the dispatch span right after, and the future
            # resolution is the happens-before edge that publishes them.
            if spans and job.parent_span is not None:
                job.parent_span.add_remote_children(spans)
            job.future.cpu_ms = cpu_ms
            if ok:
                job.future.set_result(payload)
            else:
                job.future.set_exception(_decode_failure(payload))

    def _recover_worker(
        self, handle: _WorkerHandle, extra_failed_job: Optional[int] = None
    ) -> None:
        """Respawn a dead worker and retry (once) or fail its in-flight jobs."""
        respawned = False
        with self._lock:
            current = self._handles[handle.index % self._size]
            if current.generation != handle.generation:
                # Another thread already recovered this generation; at most
                # re-route the job whose send just failed.
                orphans = []
                if extra_failed_job is not None:
                    job = self._pending.get(extra_failed_job)
                    if job is not None and job.generation == handle.generation:
                        orphans = [self._pending.pop(extra_failed_job)]
            else:
                if handle.process.is_alive() and extra_failed_job is None:
                    return  # spurious wakeup
                self._restarts += 1
                orphans = [
                    self._pending.pop(job_id)
                    for job_id, job in list(self._pending.items())
                    if job.worker_index == handle.index
                    and job.generation == handle.generation
                ]
                handle.process.join(timeout=0.5)
                for conn in (handle.job_conn, handle.result_conn):
                    try:
                        conn.close()
                    except OSError:
                        pass
                if not self._closed:
                    self._handles[handle.index] = _WorkerHandle(
                        handle.index,
                        next(self._generations),
                        self._respawn_context,
                        self._engine_config,
                    )
                    respawned = True
        if respawned:
            _LOG.warning(
                "worker_respawned",
                worker=handle.index,
                dead_pid=handle.pid,
                orphaned_jobs=len(orphans),
            )
        for job in orphans:
            self._retry_or_fail(job)

    def _retry_or_fail(self, job: _PendingJob) -> None:
        if job.attempts >= _MAX_RETRIES or self._closed:
            if not job.future.done():
                job.future.set_exception(
                    WorkerCrashError(
                        f"worker {job.worker_index} crashed while running a "
                        f"{job.kind!r} job (after {job.attempts + 1} attempt(s))"
                    )
                )
            return
        with self._lock:
            if self._closed:
                handle = None
            else:
                handle = self._handles[job.worker_index % self._size]
                job.attempts += 1
                job.generation = handle.generation
                self._pending[job.job_id] = job
                self._retries += 1
        if handle is None:
            if not job.future.done():
                job.future.set_exception(WorkerPoolError("worker pool is shut down"))
            return
        self._send(handle, job)

    # -- high-level job helpers ---------------------------------------------------------

    def answer(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        binding: Optional[Dict] = None,
        shards: Optional[int] = None,
        name: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        """Answer one query on a worker (GROUP BY when free variables and no
        binding).  The instance is transferred once via :meth:`ref_for`."""
        self._ensure_running()
        ref = self.ref_for(instance, name=name)
        worker = self._least_busy_worker()
        with obs_span("pool.answer", worker=worker) as dispatch:
            future = self._submit(
                worker, "answer", (ref, query, binding, shards), parent_span=dispatch
            )
            return self._result(future, timeout)

    def run_chunks(
        self,
        chunks: Sequence[Sequence[Tuple[int, AggregationQuery, DatabaseInstance]]],
        timeout: Optional[float] = None,
    ) -> List[object]:
        """Run ``answer_many`` chunks across the workers, preserving item order.

        Each chunk is a list of ``(index, query, instance)``; the return
        value is the flat list of :class:`~repro.engine.batch.BatchResult`
        (unsorted — the caller orders by index, as with the fork pool).
        Chunks are routed by **least queue depth** (like single answers),
        not round-robin: a worker wedged on a slow job stops receiving new
        chunks until its backlog drains, since every submission counts
        toward its pending depth.
        """
        self._ensure_running()
        with obs_span("pool.chunks", chunks=len(chunks)) as dispatch:
            futures = []
            for chunk in chunks:
                payload_chunk = [
                    (index, query, self.ref_for(instance))
                    for index, query, instance in chunk
                ]
                futures.append(
                    self._submit(
                        self._least_busy_worker(),
                        "chunk",
                        (payload_chunk,),
                        parent_span=dispatch,
                    )
                )
            results: List[object] = []
            for future in futures:
                results.extend(self._result(future, timeout))
            return results

    def summarize_shards(
        self,
        query: AggregationQuery,
        instance: DatabaseInstance,
        shards: int,
        strategy: str,
        indices: Sequence[int],
        binding: Optional[Dict] = None,
        grouped: bool = False,
        name: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[object]:
        """Summarise shards ``indices`` of ``instance`` on the pool; the
        summaries come back in the order of ``indices``.

        The indices split into at most one run per worker, and each run
        goes to the least busy worker, as :meth:`run_chunks` routes
        ``answer_many`` chunks.  Any worker can take any shard: it
        recomputes the (deterministic, worker-side cached) shard plan from
        its resident instance, so only shard *indices* cross the pipe.
        Workers keep no summary cache: the sharded executor sends only the
        shards its own cache missed.
        """
        self._ensure_running()
        ref = self.ref_for(instance, name=name)
        indices = list(indices)
        step = max(1, -(-len(indices) // self._size))  # ceil: at most `size` runs
        runs = [indices[i : i + step] for i in range(0, len(indices), step)]
        with obs_span("pool.shards", shards=shards, jobs=len(runs)) as dispatch:
            futures = [
                self._submit(
                    self._least_busy_worker(),
                    "shards",
                    (ref, query, shards, strategy, run, binding, grouped),
                    parent_span=dispatch,
                )
                for run in runs
            ]
            summaries: List[object] = []
            for future in futures:
                summaries.extend(self._result(future, timeout))
            return summaries

    @staticmethod
    def _result(future: _JobFuture, timeout: Optional[float]):
        try:
            result = future.result(timeout)
        except (TimeoutError, concurrent.futures.TimeoutError):
            raise WorkerPoolError("worker job timed out") from None
        # The calling thread only waited: the job's CPU was spent in the
        # worker, and it counts toward the dispatching request's cost.
        add_cost("engine_cpu_ms", future.cpu_ms)
        return result

    # -- observability ------------------------------------------------------------------

    def spool_report(self) -> Optional[Dict[str, object]]:
        """Spool residency in the :mod:`repro.obs.caches` common report schema.

        "Hit" means a worker reused (or delta-fast-forwarded) a resident
        instance; "miss" means it paid a full spool unpickle.  Bytes are the
        pickles :meth:`ref_for` wrote into the spool directory — exact, not
        sampled: one ``stat`` per file beats walking unpickled instances.
        """
        with self._lock:
            if self._closed or not self._started:
                return None
            worker_stats = [dict(handle.stats or {}) for handle in self._handles]
            spool_dir = self._spool_dir
        size = 0
        hits = 0
        misses = 0
        by_instance: Dict[str, Dict[str, int]] = {}
        extra = {"workers": len(worker_stats), "delta_applies": 0, "delta_fallbacks": 0}
        for stats in worker_stats:
            size += int(stats.get("resident_instances", 0))
            hits += int(stats.get("resident_hits", 0)) + int(
                stats.get("delta_applies", 0)
            )
            misses += int(stats.get("instance_loads", 0))
            extra["delta_applies"] += int(stats.get("delta_applies", 0))
            extra["delta_fallbacks"] += int(stats.get("delta_fallbacks", 0))
            for key, row in (stats.get("residency_by_key") or {}).items():
                merged = by_instance.setdefault(key, {"hits": 0, "misses": 0})
                merged["hits"] += int(row.get("hits", 0))
                merged["misses"] += int(row.get("misses", 0))
        spool_bytes = 0
        spool_files = 0
        if spool_dir is not None:
            try:
                with os.scandir(spool_dir) as entries:
                    for entry in entries:
                        try:
                            spool_bytes += entry.stat().st_size
                            spool_files += 1
                        except OSError:
                            continue
            except OSError:
                pass
        extra["spool_files"] = spool_files
        return cache_report(
            "worker_spool",
            size=size,
            capacity=None,
            hits=hits,
            misses=misses,
            by_instance=by_instance,
            approx_bytes=spool_bytes,
            extra=extra,
        )

    def stats(self) -> Dict[str, object]:
        """Pool- and per-worker counters for ``shard_stats()`` and ``/metrics``."""
        with self._lock:
            depth = [0] * self._size
            for job in self._pending.values():
                depth[job.worker_index % self._size] += 1
            per_worker = [
                {
                    "worker": handle.index,
                    "pid": handle.pid,
                    "alive": handle.alive(),
                    "queue_depth": depth[handle.index % self._size],
                    **(handle.stats or {"jobs": 0, "resident_instances": 0}),
                }
                for handle in self._handles
            ]
            return {
                "enabled": True,
                "workers": self._size,
                "running": self._started and not self._closed,
                "jobs_submitted": self._jobs_submitted,
                "in_flight": len(self._pending),
                "restarts": self._restarts,
                "retries": self._retries,
                "delta_ships": self._delta_ships,
                "delta_reships": self._delta_reships,
                "per_worker": per_worker,
            }
