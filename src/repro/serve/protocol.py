"""Wire protocol of the serving layer: JSON encoding of the repro datamodel.

Everything that crosses the HTTP boundary is JSON.  The encoding must be
loss-free for the library's exact arithmetic, so the protocol defines a
tagged representation for values JSON cannot carry natively:

* :class:`~fractions.Fraction` — ``{"$fraction": "70/3"}`` (exact);
* the ``BOTTOM`` sentinel (query not certain) — ``null``;
* strings and ints pass through as JSON strings / numbers; floats are
  accepted on input but answers coming out of the engine are exact.

Range answers serialize as ``{"glb": v, "lub": v, "bottom": flag}``; GROUP BY
results as a list of ``{"key": [...], "glb": ..., "lub": ..., "bottom": ...}``
rows (JSON objects cannot be keyed by tuples).  Database instances ship as
``{"name", "schema": {"relations": [...]}, "rows": {relation: [[...], ...]}}``
so a client can register an instance it built locally.

Errors use a structured body ``{"error": {"type", "message", "trace_id"}}``;
the type is the exception class name, so clients can switch on it, and
``trace_id`` matches the response's ``X-Repro-Trace-Id`` header so an error
can be correlated with the server's trace buffer and slow-query log.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.evaluator import BOTTOM
from repro.core.range_answers import RangeAnswer
from repro.datamodel.facts import Constant
from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.exceptions import ReproError

_FRACTION_TAG = "$fraction"


class ProtocolError(ReproError):
    """A request body does not conform to the wire protocol."""


# -- constants and answer values --------------------------------------------------------


def encode_constant(value: Constant) -> object:
    """Encode one database constant as a JSON-compatible value."""
    if isinstance(value, bool):  # bool is an int subclass; keep it explicit
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return {_FRACTION_TAG: f"{value.numerator}/{value.denominator}"}
    if isinstance(value, (str, int, float)):
        return value
    raise ProtocolError(f"cannot encode constant of type {type(value).__name__}")


def decode_constant(raw: object) -> Constant:
    """Decode a JSON value produced by :func:`encode_constant`."""
    if isinstance(raw, Mapping):
        tag = raw.get(_FRACTION_TAG)
        if tag is None or len(raw) != 1:
            raise ProtocolError(f"unknown tagged constant: {raw!r}")
        try:
            return Fraction(str(tag))
        except (ValueError, ZeroDivisionError) as exc:
            raise ProtocolError(f"bad fraction literal {tag!r}") from exc
    if isinstance(raw, (str, int, float, bool)):
        return raw
    raise ProtocolError(f"cannot decode constant: {raw!r}")


def encode_value(value: object) -> object:
    """Encode an answer value: a constant, or ``None`` for ⊥."""
    if value is BOTTOM:
        return None
    return encode_constant(value)


def decode_value(raw: object) -> object:
    """Inverse of :func:`encode_value` (``None`` → ``BOTTOM``)."""
    if raw is None:
        return BOTTOM
    return decode_constant(raw)


def encode_range_answer(answer: RangeAnswer) -> Dict[str, object]:
    return {
        "glb": encode_value(answer.glb),
        "lub": encode_value(answer.lub),
        "bottom": answer.is_bottom,
    }


def decode_range_answer(payload: Mapping) -> RangeAnswer:
    try:
        return RangeAnswer(decode_value(payload["glb"]), decode_value(payload["lub"]))
    except KeyError as exc:
        raise ProtocolError(f"range answer missing field {exc.args[0]!r}") from exc


def encode_group_answers(
    answers: Mapping[Tuple[Constant, ...], RangeAnswer]
) -> List[Dict[str, object]]:
    """Encode a GROUP BY result as a list of keyed rows (stable order)."""
    return [
        {"key": [encode_constant(c) for c in key], **encode_range_answer(answer)}
        for key, answer in answers.items()
    ]


def decode_group_answers(
    rows: Sequence[Mapping],
) -> Dict[Tuple[Constant, ...], RangeAnswer]:
    decoded: Dict[Tuple[Constant, ...], RangeAnswer] = {}
    for row in rows:
        if "key" not in row:
            raise ProtocolError("group answer row missing 'key'")
        key = tuple(decode_constant(c) for c in row["key"])
        decoded[key] = decode_range_answer(row)
    return decoded


# -- schemas and instances --------------------------------------------------------------


def schema_to_payload(schema: Schema) -> Dict[str, object]:
    return {
        "relations": [
            {
                "name": sig.name,
                "arity": sig.arity,
                "key_size": sig.key_size,
                "numeric_positions": list(sig.numeric_positions),
                "attribute_names": list(sig.attribute_names),
            }
            for sig in schema
        ]
    }


def schema_from_payload(payload: Mapping) -> Schema:
    relations = payload.get("relations")
    if not isinstance(relations, list) or not relations:
        raise ProtocolError("schema payload requires a non-empty 'relations' list")
    signatures = []
    for raw in relations:
        if not isinstance(raw, Mapping):
            raise ProtocolError("each relation must be an object")
        try:
            signatures.append(
                RelationSignature(
                    name=str(raw["name"]),
                    arity=int(raw["arity"]),
                    key_size=int(raw["key_size"]),
                    numeric_positions=tuple(
                        int(p) for p in raw.get("numeric_positions", ())
                    ),
                    attribute_names=tuple(
                        str(a) for a in raw.get("attribute_names", ())
                    ),
                )
            )
        except KeyError as exc:
            raise ProtocolError(
                f"relation payload missing field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed relation payload: {exc}") from exc
    return Schema(signatures)


def instance_to_payload(name: str, instance: DatabaseInstance) -> Dict[str, object]:
    """Serialize an instance (with its schema) for ``POST /instances``."""
    rows: Dict[str, List[List[object]]] = {}
    for fact in sorted(instance, key=repr):
        rows.setdefault(fact.relation, []).append(
            [encode_constant(v) for v in fact.values]
        )
    return {
        "name": name,
        "schema": schema_to_payload(instance.schema),
        "rows": rows,
    }


def instance_from_payload(payload: Mapping) -> Tuple[str, DatabaseInstance]:
    """Build a named :class:`DatabaseInstance` from a registration payload."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("instance payload must be a JSON object")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("instance payload requires a non-empty 'name'")
    schema_payload = payload.get("schema")
    if not isinstance(schema_payload, Mapping):
        raise ProtocolError("instance payload requires a 'schema' object")
    schema = schema_from_payload(schema_payload)
    raw_rows = payload.get("rows", {})
    if not isinstance(raw_rows, Mapping):
        raise ProtocolError("'rows' must map relation names to row lists")
    instance = DatabaseInstance(schema)
    for relation, relation_rows in raw_rows.items():
        if not isinstance(relation_rows, list):
            raise ProtocolError(f"rows for {relation!r} must be a list")
        for row in relation_rows:
            if not isinstance(row, list):
                raise ProtocolError(f"each row of {relation!r} must be a list")
            instance.add_row(str(relation), *(decode_constant(v) for v in row))
    return name, instance


# -- mutation ops -----------------------------------------------------------------------

#: Wire spellings accepted for each canonical log-record kind.
_OP_ALIASES = {
    "add": "add_fact",
    "add_fact": "add_fact",
    "remove": "remove_fact",
    "remove_fact": "remove_fact",
}

#: One decoded mutation op: (kind, relation, values).
MutationOpPayload = Tuple[str, str, Tuple[Constant, ...]]


def decode_mutation_ops(payload: Mapping) -> List[MutationOpPayload]:
    """Decode the ``"ops"`` list of ``PATCH /instances/{name}``.

    Each op is ``{"op": "add"|"remove", "relation": R, "values": [...]}``
    (the long spellings ``add_fact`` / ``remove_fact`` are accepted too);
    constants use the same tagged encoding as bindings and rows.
    """
    raw_ops = payload.get("ops")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ProtocolError("mutation requires a non-empty 'ops' list")
    ops: List[MutationOpPayload] = []
    for position, raw in enumerate(raw_ops):
        if not isinstance(raw, Mapping):
            raise ProtocolError(f"ops[{position}] must be an object")
        raw_kind = raw.get("op")
        kind = _OP_ALIASES.get(raw_kind) if isinstance(raw_kind, str) else None
        if kind is None:
            raise ProtocolError(
                f"ops[{position}]: 'op' must be one of {sorted(set(_OP_ALIASES))}"
            )
        relation = raw.get("relation")
        if not isinstance(relation, str) or not relation:
            raise ProtocolError(
                f"ops[{position}] requires a non-empty string 'relation'"
            )
        values = raw.get("values")
        if not isinstance(values, list) or not values:
            raise ProtocolError(f"ops[{position}] requires a non-empty 'values' list")
        ops.append(
            (kind, relation, tuple(decode_constant(value) for value in values))
        )
    return ops


def encode_mutation_op(op: object) -> Dict[str, object]:
    """Encode one client-side op: a ``(op, relation, values)`` triple or an
    already-shaped mapping (values encoded either way)."""
    if isinstance(op, Mapping):
        kind, relation, values = op.get("op"), op.get("relation"), op.get("values")
    else:
        try:
            kind, relation, values = op
        except (TypeError, ValueError):
            raise ProtocolError(
                f"mutation op must be (op, relation, values) or a mapping, "
                f"got {op!r}"
            ) from None
    if not isinstance(kind, str) or _OP_ALIASES.get(kind) is None:
        raise ProtocolError(f"'op' must be one of {sorted(set(_OP_ALIASES))}")
    return {
        "op": kind,
        "relation": relation,
        "values": [encode_constant(value) for value in values],
    }


def expected_version_of(payload: Mapping) -> Optional[int]:
    """The optional ``expected_version`` precondition of a write request."""
    raw = payload.get("expected_version")
    if raw is None:
        return None
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise ProtocolError("'expected_version' must be a positive integer")
    return raw


def expected_version_from_headers(
    headers: Optional[Mapping], payload: Mapping
) -> Optional[int]:
    """The write precondition of ``PATCH /instances/{name}``.

    The ``If-Match`` header (the instance version, optionally quoted per
    the HTTP entity-tag grammar) takes precedence over a body-level
    ``expected_version``; ``If-Match: *`` means "no precondition" — match
    any current version, exactly like omitting the header.
    """
    raw = (headers or {}).get("if-match")
    if raw is None:
        return expected_version_of(payload)
    value = raw.strip()
    if value == "*":
        return None
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        value = value[1:-1]
    try:
        version = int(value)
    except ValueError:
        version = -1
    if version < 1:
        raise ProtocolError(
            f"If-Match must be a positive integer version (optionally "
            f"quoted) or '*', got {raw!r}"
        )
    return version


def encode_block_key(block_key: Tuple[str, Tuple[Constant, ...]]) -> Dict[str, object]:
    """Encode one touched ``(relation, key values)`` block key for the wire."""
    relation, key = block_key
    return {"relation": relation, "key": [encode_constant(value) for value in key]}


# -- errors and body framing ------------------------------------------------------------


def error_body(
    error_type: str, message: str, trace_id: Optional[str] = None
) -> Dict[str, object]:
    """The structured error body every non-2xx response carries.

    ``trace_id`` (when known) mirrors the ``X-Repro-Trace-Id`` response
    header into the body, so clients that only keep the payload can still
    quote the id back at ``GET /traces/{id}`` or a log search.
    """
    error: Dict[str, object] = {"type": error_type, "message": message}
    if trace_id is not None:
        error["trace_id"] = trace_id
    return {"error": error}


def dumps(payload: object) -> bytes:
    """Serialize a response payload (compact separators, UTF-8)."""
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )


def loads(body: bytes) -> Any:
    """Parse a request body, raising :class:`ProtocolError` on bad JSON."""
    if not body:
        return {}
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
