"""Shared fixtures: the paper's example databases and small random instances."""

from __future__ import annotations

import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.query.parser import parse_aggregation_query
from repro.workloads.scenarios import (
    fig1_stock_instance,
    fig1_stock_schema,
    fig3_running_example_instance,
    fig3_running_example_schema,
)


#: Environment knob for the base seed of every seeded test in the suite.
REPRO_TEST_SEED_ENV = "REPRO_TEST_SEED"


@pytest.fixture(scope="session")
def repro_seed() -> int:
    """Base seed for randomised tests (parity harness, fuzz-style tests).

    Every randomised test derives its instance seeds from this value (via
    :func:`repro.workloads.generators.derive_seed`), so a failure report
    quoting the seed is enough to reproduce the exact instance.  Override
    with ``REPRO_TEST_SEED=<int>`` to re-run the suite on a different slice
    of the input space — the default keeps CI deterministic.
    """
    raw = os.environ.get(REPRO_TEST_SEED_ENV, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"{REPRO_TEST_SEED_ENV} must be an integer, got {raw!r}"
        )


@pytest.fixture
def in_fresh_process():
    """Run a module-level function in a freshly spawned interpreter.

    For tests that compare process-global telemetry exactly: the
    ``repro_cache_*`` Prometheus families mirror each cache's counters
    monotonically, so a process whose earlier tests already drove caches
    cannot compare a new server's ledgers with their mirrors.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as executor:
        yield lambda fn: executor.submit(fn).result(timeout=300)


@pytest.fixture
def stock_schema() -> Schema:
    return fig1_stock_schema()


@pytest.fixture
def stock_instance() -> DatabaseInstance:
    return fig1_stock_instance()


@pytest.fixture
def stock_sum_query(stock_schema):
    return parse_aggregation_query(
        stock_schema, "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
    )


@pytest.fixture
def running_schema() -> Schema:
    return fig3_running_example_schema()


@pytest.fixture
def running_instance() -> DatabaseInstance:
    return fig3_running_example_instance()


@pytest.fixture
def running_query(running_schema):
    return parse_aggregation_query(
        running_schema, "SUM(r) <- R(x,y), S(y,z,'d',r)"
    )


@pytest.fixture
def two_atom_schema() -> Schema:
    """Schema for R(x, y), S(y, z, r) with a numeric last column of S."""
    return Schema(
        [
            RelationSignature("R", 2, 1, attribute_names=("a", "b")),
            RelationSignature(
                "S", 3, 1, numeric_positions=(3,), attribute_names=("c", "d", "e")
            ),
        ]
    )


def make_random_instance(
    schema: Schema,
    seed: int,
    facts_per_relation: int = 6,
    domain_size: int = 3,
    max_value: int = 5,
) -> DatabaseInstance:
    """Small random instance over ``schema`` (used by property-style tests).

    Domain values are ``d0..d{domain_size-1}`` for non-numeric columns and
    small integers for numeric columns, so primary-key violations appear with
    high probability.
    """
    rng = random.Random(seed)
    instance = DatabaseInstance(schema)
    for signature in schema:
        for _ in range(facts_per_relation):
            values = []
            for position in range(1, signature.arity + 1):
                if signature.is_numeric(position):
                    values.append(rng.randint(0, max_value))
                else:
                    values.append(f"d{rng.randint(0, domain_size - 1)}")
            instance.add_row(signature.name, *values)
    return instance


@pytest.fixture
def random_instance_factory(two_atom_schema):
    """Factory fixture: ``factory(seed)`` returns a small random instance."""

    def factory(seed: int, **kwargs) -> DatabaseInstance:
        return make_random_instance(two_atom_schema, seed, **kwargs)

    return factory
