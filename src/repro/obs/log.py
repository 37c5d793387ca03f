"""Structured JSON logging, one object per line, trace-id stamped.

Every component logs through :func:`get_logger`; each event becomes a
single JSON line on stderr::

    {"ts": 1754650000.123, "level": "info", "component": "serve",
     "event": "listening", "trace_id": null, "host": "127.0.0.1", ...}

The ``trace_id`` field is filled from the active span automatically, so a
log line emitted three layers below HTTP ingress still correlates with the
request that caused it.  Events ride Python's stdlib ``logging`` (logger
name ``repro.obs``), so tests and embedders can attach handlers or raise
the level; the default handler writes to stderr and does not propagate,
keeping lines un-duplicated when an application configures the root logger.
The threshold is ``info`` until :func:`set_log_level` (the server's
``--log-level``) changes it.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Any, Dict

from repro.obs.trace import current_trace_id

_LOGGER_NAME = "repro.obs"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def set_log_level(level: str) -> None:
    """Set the shared ``repro.obs`` logger's threshold (``debug``..``error``).

    Raises :class:`ValueError` for any other name.
    """
    parsed = _LEVELS.get(level.strip().lower())
    if parsed is None:
        raise ValueError(
            f"unknown log level {level!r}; use one of {', '.join(sorted(_LEVELS))}"
        )
    _base_logger().setLevel(parsed)


def _base_logger() -> logging.Logger:
    logger = logging.getLogger(_LOGGER_NAME)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler()  # stderr
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
    return logger


class StructuredLogger:
    """A component-scoped emitter of one-line JSON events."""

    def __init__(self, component: str) -> None:
        self._component = component
        self._logger = _base_logger()

    def log(self, level: str, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self._component,
            "event": event,
            "trace_id": current_trace_id(),
        }
        record.update(fields)
        line = json.dumps(record, default=str, separators=(",", ":"))
        self._logger.log(_LEVELS.get(level, logging.INFO), line)

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


def get_logger(component: str) -> StructuredLogger:
    return StructuredLogger(component)
