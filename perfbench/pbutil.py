"""Shared helpers of the benchmark: statistics, self time, metric grammar,
program processes and the provenance block.

Everything here is stdlib-only and imports nothing from ``repro``, so the
unit tests and the span launcher can load it before the program is on the
path.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a latency line may name as its tail; the highest one with at
#: least ten samples beyond it is printed (choosing-metrics guide, section 1).
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- statistics -------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0 - 1e-9:  # 100 - 99.9 is inexact
            best = q
    return best


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, object]:
    """p50, p95, the sample count and the highest well-supported tail."""
    if not samples_ms:
        return {"n": 0, "p50": None, "p95": None, "tail_q": None, "tail": None}
    tail_q = tail_percentile(len(samples_ms))
    return {
        "n": len(samples_ms),
        "p50": percentile(samples_ms, 50.0),
        "p95": percentile(samples_ms, 95.0),
        "tail_q": tail_q,
        "tail": percentile(samples_ms, tail_q) if tail_q is not None else None,
    }


def latency_line(name: str, samples_ms: Sequence[float]) -> str:
    s = latency_summary(samples_ms)
    if not s["n"]:
        return f"{name}: n=0"
    tail = (
        f" p{s['tail_q']:g}={s['tail']:.3f}ms"
        if s["tail_q"] is not None
        else " (no percentile has >=10 samples beyond it)"
    )
    return (
        f"{name}: n={s['n']} p50={s['p50']:.3f}ms p95={s['p95']:.3f}ms{tail}"
    )


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 for an idle (zero) denominator."""
    return numerator / denominator if denominator else 0.0


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far, from ``/proc/stat``."""
    with open("/proc/stat", "r", encoding="utf-8") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


class HostSampler:
    """Samples the host's CPU ticks (:func:`host_ticks`) and the program's
    CPU seconds (:func:`proc_cpu_seconds`) every ``period`` seconds on a
    thread, from entering the ``with`` block to leaving it, as
    ``(perf_counter, steal, total, program_cpu_s)``.  ``perf_counter`` is
    the system's monotonic clock, so a program process's op times fall on
    the same time line."""

    def __init__(self, pid: int, period: float = 1.0) -> None:
        self.pid = pid
        self.period = period
        self.samples: List[Tuple[float, int, int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        at = time.perf_counter()
        self.samples.append((at, *host_ticks(), proc_cpu_seconds(self.pid)))

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> "HostSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        # No sliver of a last window: it joins the one before it.
        since = time.perf_counter() - self.samples[-1][0]
        if len(self.samples) > 1 and since < self.period / 2:
            self.samples.pop()
        self._sample()


def steal_share(first: Sequence, last: Sequence) -> float:
    """Share of the host's CPU ticks stolen by the hypervisor between two
    :class:`HostSampler` samples."""
    return ratio(last[1] - first[1], last[2] - first[2])


def quiet_windows(samples: Sequence[Sequence]) -> List[Tuple[Sequence, Sequence]]:
    """The windows between consecutive host samples that are no more stolen
    from than the median window, as ``(first, last)`` sample pairs in time
    order.

    On a shared host the hypervisor steals the benchmark's CPUs in bursts
    of seconds, and an op caught in one runs up to twice as long.  Keeping
    the windows at or below the median stolen share of CPU ticks drops the
    bursts and keeps at least half the run (all of it on a quiet host).
    The choice uses the host's counters only, never the benchmark's own
    measurements.
    """
    windows = list(zip(samples, samples[1:]))
    if not windows:
        return []
    shares = [steal_share(first, last) for first, last in windows]
    median = sorted(shares)[(len(shares) - 1) // 2]
    return [window for window, share in zip(windows, shares) if share <= median]


def inside(at: float, windows: Sequence[Tuple[Sequence, Sequence]]) -> bool:
    """Whether time ``at`` falls in one of the sorted windows, each from its
    first sample's time (included) to its last sample's (excluded)."""
    index = bisect.bisect_right([first[0] for first, _last in windows], at) - 1
    return index >= 0 and at < windows[index][1][0]


# -- spans and self time ----------------------------------------------------------------

#: Field positions of one recorded span tuple (see ``pbspans.SpanRecorder``).
SID, PARENT, NAME, START, END, RID, THREAD, VALUE = range(8)


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals if b > low and a < high
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children are the spans naming it as parent (same thread); overlapping
    children count once, and a child running past its parent counts only
    inside the parent's interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - covered(children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


def layer_totals(
    spans: Sequence[Sequence], layer_of: Dict[str, str]
) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """Per layer: summed self seconds, span count and summed span values."""
    own = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    values: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer = layer_of.get(span[NAME])
        if layer is None:
            continue
        seconds[layer] += own[span[SID]]
        calls[layer] += 1
        values[layer] += span[VALUE] or 0
    return seconds, calls, values


# -- metric grammar ---------------------------------------------------------------------


def check_metric_name(name: str) -> None:
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric or workload name {name!r}")


def check_unit(unit: str) -> None:
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r}")


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    specs: Sequence[Dict[str, object]],
) -> str:
    """The final JSON line: every metric in ``specs``, with its unit."""
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        check_metric_name(name)
        check_unit(unit)
        value = values[name]
        if not isinstance(value, (int, float)) or value != value:
            raise ValueError(f"metric {name} has no numeric value: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


# -- program processes ------------------------------------------------------------------


def hash_seed_of(seed: int) -> int:
    """The ``PYTHONHASHSEED`` given to program processes for ``seed``."""
    digest = hashlib.sha256(f"perfbench-hashseed:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def program_env(root: str, seed: int, workdir: str) -> Dict[str, str]:
    """Environment of every program process.

    ``REPRO_*`` overrides are dropped so the program runs its library
    defaults; bytecode writing is off so every process compiles ``repro``
    from source, and ``PYTHONPYCACHEPREFIX`` points at an empty directory
    so a stray ``__pycache__`` in the checkout cannot make one start-up
    cheaper than another.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    pycache = os.path.join(workdir, "no-pycache")
    os.makedirs(pycache, exist_ok=True)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED=str(hash_seed_of(seed)),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=pycache,
        PYTHONUNBUFFERED="1",
        TMPDIR=workdir,
    )
    return env


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` and its reaped children."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode()
    fields = raw[raw.rindex(")") + 2 :].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Program:
    """One spawned program process with its stderr drained on a thread."""

    def __init__(
        self,
        argv: List[str],
        env: Dict[str, str],
        cwd: str,
        stdin=None,
        stdout=subprocess.PIPE,
    ) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            env=env,
            cwd=cwd,
            stdin=stdin,
            stdout=stdout,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.log_tail: deque = deque(maxlen=40)
        self._port: Optional[int] = None
        self._listening = threading.Event()
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _drain(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self.log_tail.append(line)
            if self._port is None and '"listening"' in line:
                try:
                    self._port = int(json.loads(line)["port"])
                except (ValueError, KeyError, TypeError):
                    continue
                self._listening.set()
        self._listening.set()  # EOF: wake a waiter so it sees the exit

    def wait_listening(self, timeout: float) -> int:
        """Block until the server logs ``listening``; return its port."""
        if not self._listening.wait(timeout) or self._port is None:
            raise RuntimeError(
                "server did not report listening: " + " | ".join(self.log_tail)
            )
        return self._port

    def readline(self, timeout: float) -> str:
        """One stdout line of a driver, failing after ``timeout`` seconds."""
        box: List[bytes] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout)
        if not box or not box[0]:
            raise RuntimeError(
                "driver stopped answering: " + " | ".join(self.log_tail)
            )
        return box[0].decode().strip()

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def send_signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            os.kill(self.pid, signum)

    def stop(self, signum: int = signal.SIGTERM, timeout: float = 15.0) -> None:
        """Ask the program to exit, then kill its process group if it won't.

        SIGTERM, not SIGINT: a benchmark started in the background inherits
        an ignored SIGINT, and so would the programs it starts.
        """
        if self.proc.poll() is None:
            try:
                os.kill(self.pid, signum)
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)  # stray fork-pool children too
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._drainer.join(5.0)
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


class ProcessGroup:
    """Owns every program a run starts and stops them all on exit."""

    def __init__(self) -> None:
        self.programs: List[Program] = []

    def spawn(self, argv, env, cwd, stdin=None, stdout=subprocess.PIPE) -> Program:
        program = Program(argv, env, cwd, stdin=stdin, stdout=stdout)
        self.programs.append(program)
        return program

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        for program in self.programs:
            program.stop()


# -- provenance -------------------------------------------------------------------------


def source_digest(root: str) -> str:
    """SHA-256 over ``src/`` (path + bytes of every ``.py`` file)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else ``None``."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def provenance(root: str, seed: int, env: Dict[str, str]) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "program_PYTHONHASHSEED": env["PYTHONHASHSEED"],
        "program_PYTHONDONTWRITEBYTECODE": env["PYTHONDONTWRITEBYTECODE"],
        "harness_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "executable": os.path.basename(sys.executable),
    }
