"""Hand-rolled Prometheus text exposition (format version 0.0.4).

:func:`render` writes every instrument of the registries it is given — the
server's own request metrics, then the process-global
:data:`~repro.obs.metrics.REGISTRY` — the same way: a ``# HELP`` and
``# TYPE`` header, then the instrument's samples (a histogram's cumulative
``_bucket{le=...}`` series, ``_sum`` and ``_count``).  Bucket lines carry
OpenMetrics exemplars (``... # {trace_id="..."} value ts``) when the bucket
has one, linking a percentile spike straight to ``GET /traces/{id}``.

No client library is involved: the format is four line shapes (``# HELP``,
``# TYPE``, samples, blank) and is produced with plain string formatting.
"""

from __future__ import annotations

from typing import List

from repro.obs.metrics import LabelSet, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: LabelSet, value: float) -> str:
    return f"{name}{_format_labels(labels)} {_format_value(value)}"


def _header(lines: List[str], name: str, kind: str, help_text: str) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def render(*registries: MetricsRegistry) -> str:
    """Render every instrument of ``registries``, in order, as one page.

    An instrument without samples renders as its unlabelled zero.
    """
    lines: List[str] = []
    for registry in registries:
        for instrument in registry.instruments():
            _header(lines, instrument.name, instrument.kind, instrument.help)
            exemplars = instrument.exemplars()
            samples = instrument.samples() or [(instrument.name, (), 0.0)]
            for name, labels, value in samples:
                line = _sample(name, labels, value)
                exemplar = exemplars.get((name, labels))
                if exemplar is not None:
                    trace_id, observed, ts = exemplar
                    line += (
                        f' # {{trace_id="{_escape_label_value(trace_id)}"}}'
                        f" {_format_value(observed)} {ts:.3f}"
                    )
                lines.append(line)
    return "\n".join(lines) + "\n"
