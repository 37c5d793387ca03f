"""Run the unchanged ``repro.serve`` entry point with layer spans recorded.

Usage::

    python perfbench/serve_launcher.py SPANS.json [repro.serve flags...]

Installs the :mod:`pbspans` wrappers, then runs ``python -m repro.serve``
with the remaining arguments.  ``SIGUSR1`` writes the spans recorded so far
to ``SPANS.json`` (atomically), so the benchmark can collect them at the
end of its timed phase, before it stops or kills the server.
"""

from __future__ import annotations

import runpy
import signal
import sys

from pbspans import SpanRecorder, install


def main() -> None:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    from repro.obs.trace import current_trace_id

    recorder = SpanRecorder(rid_source=current_trace_id)
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: recorder.dump(spans_path))
    sys.argv = ["python -m repro.serve", *serve_args]
    runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
