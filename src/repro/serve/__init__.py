"""repro.serve — asyncio HTTP/JSON serving layer over the engine.

The serving subsystem turns the cached, batched
:class:`~repro.engine.ConsistentAnswerEngine` into a long-running service:

* :mod:`repro.serve.registry` — named :class:`DatabaseInstance`\\ s loaded at
  boot or registered over HTTP, so requests reference databases by name;
* :mod:`repro.serve.app` — the asyncio server (router, engine thread pool,
  bounded-queue admission control, per-request timeouts);
* :mod:`repro.serve.protocol` — loss-free JSON encoding of queries, exact
  (Fraction) answers, ⊥ and instances;
* :mod:`repro.serve.metrics` — request counters, latency histograms and the
  engine's plan-cache / SQL-memo statistics at ``GET /metrics``;
* :mod:`repro.serve.client` — async client + load generator used by the
  benchmarks and the CI smoke test.

With ``--store-dir DIR`` the registry is backed by the durable
:mod:`repro.store` subsystem: instances persist as snapshots, mutations
(``PATCH /instances/{name}``) append to a fsync'd fact log, and a
restart reloads everything with versions intact.

Boot a server with ``python -m repro.serve`` (see ``--help``).
"""

from repro.serve.app import (
    AdmissionError,
    AdmissionGate,
    ConsistentAnswerServer,
    ServeConfig,
    run_server,
)
from repro.serve.client import (
    LoadGenerator,
    LoadReport,
    ServeClient,
    ServeClientError,
)
from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.protocol import (
    ProtocolError,
    decode_constant,
    decode_group_answers,
    decode_mutation_ops,
    decode_range_answer,
    encode_constant,
    encode_group_answers,
    encode_mutation_op,
    encode_range_answer,
    expected_version_of,
    instance_from_payload,
    instance_to_payload,
    schema_from_payload,
    schema_to_payload,
)
from repro.serve.registry import (
    BUILTIN_INSTANCES,
    DuplicateInstanceError,
    InstanceRegistry,
    MutationError,
    RegisteredInstance,
    RegistryError,
    UnknownInstanceError,
    VersionConflictError,
    builtin_registry,
)

__all__ = [
    "AdmissionError",
    "AdmissionGate",
    "BUILTIN_INSTANCES",
    "ConsistentAnswerServer",
    "DuplicateInstanceError",
    "InstanceRegistry",
    "LatencyHistogram",
    "LoadGenerator",
    "LoadReport",
    "MutationError",
    "ProtocolError",
    "RegisteredInstance",
    "RegistryError",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServerMetrics",
    "UnknownInstanceError",
    "VersionConflictError",
    "builtin_registry",
    "decode_constant",
    "decode_group_answers",
    "decode_mutation_ops",
    "decode_range_answer",
    "encode_constant",
    "encode_group_answers",
    "encode_mutation_op",
    "encode_range_answer",
    "expected_version_of",
    "instance_from_payload",
    "instance_to_payload",
    "run_server",
    "schema_from_payload",
    "schema_to_payload",
]
