"""Pluggable execution backends for compiled query plans.

A backend turns a (query, strategy, direction) triple into a *prepared
executor*: an object holding every piece of expensive state — attack graph,
topological sort, generated SQL — so that executing a cached plan is a pure
evaluation step.  Three backends ship with the engine:

* ``operational`` — in-process evaluation via
  :class:`~repro.core.evaluator.OperationalRangeEvaluator` /
  :class:`~repro.core.minmax.MinMaxRangeEvaluator`;
* ``sqlite`` — the generated SQL rewriting executed on an unmodified DBMS
  through :class:`~repro.sql.backend.SqliteBackend` (glb only, mirroring the
  paper's Fig. 5 pipeline);
* ``branch_and_bound`` — the exact exponential fallback for non-rewritable
  queries.

New DBMS targets register with :func:`register_backend`; the engine resolves
them by name at compile time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.baselines.branch_and_bound import BranchAndBoundSolver
from repro.baselines.exhaustive import ExhaustiveRangeSolver
from repro.core.evaluator import OperationalRangeEvaluator
from repro.core.minmax import MinMaxRangeEvaluator
from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.exceptions import BackendError
from repro.obs.caches import PlanCache, register_cache
from repro.query.aggregation import AggregationQuery
from repro.sql.backend import SqliteBackend
from repro.sql.generator import GeneratedSql, SqlRewritingGenerator

from repro.engine.plan import (
    PlanKey,
    REWRITING_STRATEGIES,
    STRATEGY_MINMAX,
    STRATEGY_OPERATIONAL,
    plan_key,
)

Binding = Dict[str, Constant]


# -- process-wide generated-SQL memo ----------------------------------------------------
#
# GROUP BY plans generate one rewriting per (free-variable) instantiation.
# Memoizing those only on the executor would make every fresh engine — e.g.
# each worker of the batch executor or a serving pool — regenerate identical
# SQL, so the memo lives at module (process) level, keyed by
# (dialect, plan key, instantiation constants).  Instantiations are
# client-controlled in a serving deployment, so the memo is a bounded LRU
# (reusing PlanCache), not an ever-growing dict.

_SQL_MEMO_SIZE = 1024
_SQL_MEMO: "PlanCache[GeneratedSql]" = None  # type: ignore[assignment]


def _memoized_sql(
    dialect: str,
    key: PlanKey,
    constants: Tuple[Constant, ...],
    generate: Callable[[], GeneratedSql],
) -> GeneratedSql:
    """Return the memoized rewriting for one instantiation, generating once."""
    memo_key = (dialect, key, constants)
    cached = _SQL_MEMO.get(memo_key)
    if cached is not None:
        return cached
    generated = generate()
    _SQL_MEMO.put(memo_key, generated)
    return generated


def sql_memo_stats() -> Dict[str, int]:
    """Counters of the process-wide generated-SQL memo."""
    stats = _SQL_MEMO.stats()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "size": stats.size,
        "maxsize": stats.maxsize,
    }


def clear_sql_memo(maxsize: int = _SQL_MEMO_SIZE) -> None:
    """Reset the memo (entries *and* counters), optionally resizing it."""
    global _SQL_MEMO
    _SQL_MEMO = PlanCache(maxsize)


clear_sql_memo()

# The memo is process-global, so it self-registers with the unified cache
# telemetry at import.  The provider re-reads the module global on every
# call: clear_sql_memo() rebinds it, and a captured reference would keep
# reporting a cache nobody uses anymore.
register_cache("sql_memo", lambda: _SQL_MEMO.report("sql_memo"))


class PreparedExecutor:
    """Base class for per-(plan, direction) executors.

    Subclasses hold prepared state and implement :meth:`evaluate`; the
    engine calls it once per (instance, binding) pair.
    """

    backend_name: str = "?"
    strategy: str = "?"
    direction: str = "?"

    def evaluate(self, instance: DatabaseInstance, binding: Optional[Binding] = None):
        raise NotImplementedError

    def evaluate_many(self, instance: DatabaseInstance, bindings: Sequence[Binding]):
        """Evaluate one instance under many bindings (GROUP BY execution).

        Backends with per-call setup costs (loading the instance into a
        DBMS) override this to pay them once per batch.
        """
        return [self.evaluate(instance, binding) for binding in bindings]


class ExecutionBackend:
    """Interface of a plan-execution backend (see module docstring)."""

    name: str = "?"

    def supports(self, query: AggregationQuery, strategy: str, direction: str) -> bool:
        """Whether this backend can execute ``strategy`` for ``direction``."""
        raise NotImplementedError

    def prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        """Build the prepared executor (the expensive, compile-time step)."""
        raise NotImplementedError


# -- operational (in-process) backend ---------------------------------------------------


class _OperationalExecutor(PreparedExecutor):
    backend_name = "operational"

    def __init__(self, query: AggregationQuery, strategy: str, direction: str) -> None:
        self.strategy = strategy
        self.direction = direction
        if strategy == STRATEGY_MINMAX:
            self._evaluator = MinMaxRangeEvaluator(query)
        else:
            self._evaluator = OperationalRangeEvaluator(query)

    def evaluate(self, instance: DatabaseInstance, binding: Optional[Binding] = None):
        binding = dict(binding or {})
        if self.strategy == STRATEGY_MINMAX:
            if self.direction == "glb":
                return self._evaluator.glb(instance, binding)
            return self._evaluator.lub(instance, binding)
        return self._evaluator.glb_for_binding(instance, binding)


class OperationalBackend(ExecutionBackend):
    """In-process evaluation of the paper's rewritings (the default)."""

    name = "operational"

    def supports(self, query: AggregationQuery, strategy: str, direction: str) -> bool:
        if strategy == STRATEGY_MINMAX:
            return True
        if strategy == STRATEGY_OPERATIONAL:
            return direction == "glb"
        return False

    def prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        return _OperationalExecutor(query, strategy, direction)


# -- SQL (sqlite3) backend --------------------------------------------------------------


class _SqlExecutor(PreparedExecutor):
    backend_name = "sqlite"
    dialect = "sqlite"

    def __init__(self, query: AggregationQuery, strategy: str, direction: str) -> None:
        self.strategy = strategy
        self.direction = direction
        self._query = query
        # Rewritings are memoized process-wide by (dialect, plan key,
        # instantiation): closed queries under the empty instantiation at
        # compile time, group-by plans per binding (free variables become
        # constants, Section 6.2) at execution time.  Fresh executors — e.g.
        # in batch or serving workers — reuse SQL generated by earlier ones.
        self._memo_key = plan_key(query.body.schema(), query)
        self._generated: Optional[GeneratedSql] = None
        if query.is_closed():
            self._generated = _memoized_sql(
                self.dialect,
                self._memo_key,
                (),
                SqlRewritingGenerator(query).generate,
            )

    def _sql_for(self, binding: Binding) -> GeneratedSql:
        if self._generated is not None:
            return self._generated
        free = self._query.free_variables
        missing = [v.name for v in free if v.name not in binding]
        if missing:
            raise BackendError(
                f"binding does not cover free variables {missing}"
            )
        constants = tuple(binding[v.name] for v in free)

        def generate() -> GeneratedSql:
            closed = self._query.instantiate_free_variables(constants)
            return SqlRewritingGenerator(closed).generate()

        return _memoized_sql(self.dialect, self._memo_key, constants, generate)

    def evaluate(self, instance: DatabaseInstance, binding: Optional[Binding] = None):
        generated = self._sql_for(dict(binding or {}))
        with SqliteBackend() as backend:
            backend.load(instance)
            return backend.run_generated(generated)

    def evaluate_many(self, instance: DatabaseInstance, bindings: Sequence[Binding]):
        # Load the instance once and run every per-binding rewriting against
        # the same in-memory database.
        generated = [self._sql_for(dict(binding)) for binding in bindings]
        with SqliteBackend() as backend:
            backend.load(instance)
            return [backend.run_generated(sql) for sql in generated]


class SqliteExecutionBackend(ExecutionBackend):
    """Executes the generated SQL rewriting on the sqlite3 backend.

    Only glb rewritings exist in SQL (the generator implements the Fig. 5
    pipeline and the Theorem 7.10 MIN rewriting); lub directions fall back
    to the operational backend at plan-compile time.
    """

    name = "sqlite"

    def supports(self, query: AggregationQuery, strategy: str, direction: str) -> bool:
        # The generator covers every glb rewriting: the Fig. 5 pipeline for
        # monotone + associative aggregates (including GLB-CQA(MAX)) and the
        # plain-MIN rewriting of Theorem 7.10.
        return direction == "glb" and strategy in REWRITING_STRATEGIES

    def prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        return _SqlExecutor(query, strategy, direction)


# -- exact fallback backends ------------------------------------------------------------


class _SolverExecutor(PreparedExecutor):
    def __init__(self, solver, backend_name: str, strategy: str, direction: str) -> None:
        self._solver = solver
        self.backend_name = backend_name
        self.strategy = strategy
        self.direction = direction

    def evaluate(self, instance: DatabaseInstance, binding: Optional[Binding] = None):
        binding = dict(binding or {})
        if self.direction == "glb":
            return self._solver.glb(instance, binding)
        return self._solver.lub(instance, binding)


class BranchAndBoundBackend(ExecutionBackend):
    """Exact repair search with pruning — the non-rewritable fallback."""

    name = "branch_and_bound"

    def supports(self, query: AggregationQuery, strategy: str, direction: str) -> bool:
        return True

    def prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        return _SolverExecutor(
            BranchAndBoundSolver(query), self.name, strategy, direction
        )


class ExhaustiveBackend(ExecutionBackend):
    """Full repair enumeration — ground truth for tiny instances only."""

    name = "exhaustive"

    def supports(self, query: AggregationQuery, strategy: str, direction: str) -> bool:
        return True

    def prepare(
        self, query: AggregationQuery, strategy: str, direction: str
    ) -> PreparedExecutor:
        return _SolverExecutor(
            ExhaustiveRangeSolver(query), self.name, strategy, direction
        )


# -- registry ---------------------------------------------------------------------------

_BACKEND_FACTORIES: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites an existing one)."""
    _BACKEND_FACTORIES[name] = factory


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError as exc:
        raise BackendError(
            f"unknown execution backend {name!r}; available: "
            f"{sorted(_BACKEND_FACTORIES)}"
        ) from exc
    return factory()


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend."""
    return tuple(sorted(_BACKEND_FACTORIES))


register_backend("operational", OperationalBackend)
register_backend("sqlite", SqliteExecutionBackend)
register_backend("branch_and_bound", BranchAndBoundBackend)
register_backend("exhaustive", ExhaustiveBackend)
