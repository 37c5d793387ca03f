"""The two workloads that drive ``python -m repro.serve`` over HTTP.

* paper-serve: one keep-alive connection cycles through the paper's query
  shapes on the built-in Fig. 1 dbStock and Fig. 3 db0.  On 8- and 13-fact
  instances about half the server's CPU per request is spent outside the
  engine, so the HTTP, JSON, parse, dispatch and telemetry layers do most
  of their work here.
* write-refresh: one connection runs rounds of fsync'd ``PATCH`` point
  writes, a fresh per-town GROUP BY and repeated reads against a durable
  store.  It is the only workload on the registry write path, log append,
  compaction and boot replay, and writes invalidate shard summaries
  between reads.

Tracing stays on in both (``--trace-sample 1`` pins the rate, so tracing
cost per request does not follow the measured speed).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Tuple

import pbutil
from phase import Phase
from wl_stock import conditioned_instance

TRACE_HEADER = "X-Repro-Trace-Id"


# -- client side ------------------------------------------------------------------------


class Client:
    """One keep-alive connection; bodies go out pre-encoded."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call_raw(self, method: str, path: str, body: bytes = b"", headers=None):
        """``(status, body bytes)``; status 0 when the connection failed."""
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        try:
            self.conn.request(method, path, body=body or None, headers=all_headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            return 0, b""

    def call(self, method: str, path: str, body: bytes = b"", headers=None):
        """``(status, decoded JSON body)``; the body is ``None`` if not JSON."""
        status, raw = self.call_raw(method, path, body, headers)
        return status, decode(raw)

    def close(self) -> None:
        self.conn.close()


def encode(payload) -> bytes:
    return json.dumps(payload).encode()


def decode(raw: bytes):
    try:
        return json.loads(raw) if raw else None
    except ValueError:
        return None


def bound(raw):
    """A JSON answer bound as a Fraction (``None`` for ⊥)."""
    if raw is None:
        return None
    if isinstance(raw, dict):
        return Fraction(raw["$fraction"])
    return Fraction(str(raw))


def closed(answer) -> Tuple:
    return (bound(answer["glb"]), bound(answer["lub"]))


def grouped(rows) -> Dict[tuple, Tuple]:
    return {tuple(row["key"]): closed(row) for row in rows}


def oracle_range(solver, instance, binding=None) -> Tuple:
    from repro.core.evaluator import BOTTOM

    glb, lub = solver.range(instance, binding)
    return (None if glb is BOTTOM else glb, None if lub is BOTTOM else lub)


def start_server(ctx, args: List[str], traced: bool, spans_path: str):
    if traced:
        launcher = os.path.join(ctx.root, "perfbench", "serve_launcher.py")
        argv = [sys.executable, launcher, spans_path, *args]
    else:
        argv = [sys.executable, "-m", "repro.serve", *args]
    program = ctx.procs.spawn(argv, ctx.env, ctx.root, stdout=subprocess.DEVNULL)
    return program, program.wait_listening(120.0)


def server_counters(client: Client) -> Dict[str, float]:
    status, body = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    sharding = body["sharding"]
    return {
        "plan_hits": body["plan_cache"]["hits"],
        "plan_misses": body["plan_cache"]["misses"],
        "summary_hits": sharding["summary_cache"]["hits"],
        "shards_planned": sharding["shards_planned"],
    }


def collect_spans(program, spans_path: str) -> dict:
    """Ask the traced server to write its spans and wait for the file."""
    program.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 120.0
    while not os.path.exists(spans_path):
        if time.monotonic() > deadline or program.proc.poll() is not None:
            raise RuntimeError("traced server did not write its spans")
        time.sleep(0.05)
    with open(spans_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- paper-serve ------------------------------------------------------------------------

_G0 = "Dealers('Smith', t), Stock(p, t, y)"
_RUNNING = "SUM(r) <- R(x,y), S(y,z,'d',r)"
#: (class, path, [(instance, query)]): five closed aggregates, the
#: per-dealer GROUP BY of Section 1 and a 3-item batch — 7 plans in all.
PAPER_SHAPES = [
    ("sum", "/answer", [("stock", f"SUM(y) <- {_G0}")]),
    ("count", "/answer", [("stock", f"COUNT(1) <- {_G0}")]),
    ("min", "/answer", [("stock", f"MIN(y) <- {_G0}")]),
    ("max", "/answer", [("stock", f"MAX(y) <- {_G0}")]),
    ("avg", "/answer", [("stock", f"AVG(y) <- {_G0}")]),
    ("group_by", "/answer_group_by", [("stock", "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)")]),
    (
        "many",
        "/answer_many",
        [
            ("running_example", _RUNNING),
            ("stock", f"SUM(y) <- {_G0}"),
            ("stock", f"MAX(y) <- {_G0}"),
        ],
    ),
]


def _paper_body(path: str, items) -> bytes:
    if path == "/answer_many":
        return encode({"items": [{"instance": i, "query": q} for i, q in items]})
    instance, query = items[0]
    return encode({"instance": instance, "query": query})


def paper_oracle() -> Dict[str, object]:
    """Expected answers by repair enumeration (``ExhaustiveRangeSolver``)."""
    from repro.baselines.exhaustive import ExhaustiveRangeSolver
    from repro.embeddings.embeddings import embeddings_of
    from repro.query.parser import parse_aggregation_query
    from repro.workloads.scenarios import (
        fig1_stock_instance,
        fig3_running_example_instance,
    )

    instances = {
        "stock": fig1_stock_instance(),
        "running_example": fig3_running_example_instance(),
    }
    expected: Dict[str, object] = {}
    for kind, path, items in PAPER_SHAPES:
        answers = []
        for name, text in items:
            instance = instances[name]
            query = parse_aggregation_query(instance.schema, text)
            solver = ExhaustiveRangeSolver(query)
            if not query.free_variables:
                answers.append(oracle_range(solver, instance))
                continue
            free = [v.name for v in query.free_variables]
            keys = {tuple(e[v] for v in free) for e in embeddings_of(query.body, instance)}
            answers.append(
                {
                    key: oracle_range(solver, instance, dict(zip(free, key)))
                    for key in keys
                }
            )
        expected[kind] = answers
    return expected


def _paper_ok(kind: str, path: str, body, expected) -> bool:
    if not isinstance(body, dict):
        return False
    try:
        if path == "/answer":
            return closed(body["answer"]) == expected[kind][0]
        if path == "/answer_group_by":
            return grouped(body["groups"]) == expected[kind][0]
        return [closed(r["answer"]) for r in body["results"]] == expected[kind]
    except (KeyError, TypeError, ValueError):
        return False


def run_paper_serve(ctx, traced: bool, setups: int) -> Phase:
    phase = Phase(read_classes=[kind for kind, _p, _i in PAPER_SHAPES])
    expected = paper_oracle()
    bodies = {kind: (path, _paper_body(path, items)) for kind, path, items in PAPER_SHAPES}
    spans_path = os.path.join(ctx.workdir, "paper-spans.json")
    args = ["--port", "0", "--trace-sample", "1"]
    for attempt in range(setups):
        program, port = start_server(ctx, args, traced, spans_path)
        client = Client(port)
        for kind, (path, body) in bodies.items():  # warm-up: every plan once
            status, answer = client.call("POST", path, body)
            if status != 200 or not _paper_ok(kind, path, answer, expected):
                raise RuntimeError(f"warm-up {kind} answered {status}: {answer}")
        phase.setup_s.append(time.perf_counter() - program.started)
        if attempt < setups - 1:
            client.close()
            program.stop()

    rng = random.Random(f"paper-serve:{ctx.seed}")
    order = [kind for kind, _p, _i in PAPER_SHAPES]
    rng.shuffle(order)
    before = server_counters(client)
    results: List[tuple] = []
    clock = time.perf_counter
    with pbutil.HostSampler(program.pid) as host:
        deadline = clock() + ctx.seconds
        index = 0
        while clock() < deadline:
            kind = order[index % len(order)]
            path, body = bodies[kind]
            rid = f"ps{index}"
            t0 = clock()
            status, raw = client.call_raw("POST", path, body, {TRACE_HEADER: rid})
            done = clock()
            results.append((kind, (done - t0) * 1000.0, done, status, rid, raw))
            index += 1
    phase.host = host.samples
    phase.peak_rss_mb = pbutil.proc_peak_rss_mb(program.pid)
    phase.counters = {"before": before, "after": server_counters(client)}
    client.close()
    # Answers are checked after the timed phase, so the loop's client does
    # no more per request than send, receive and keep the bytes.
    for kind, latency, done_at, status, rid, raw in results:
        ok = status == 200 and _paper_ok(kind, bodies[kind][0], decode(raw), expected)
        phase.record(kind, latency, ok, rid=rid, done_at=done_at)
        if status in (503, 504):
            phase.rejected += 1
        if not ok:
            phase.fail(f"{kind} ({rid}) answered {status} or a wrong answer")
    if traced:
        phase.spans = collect_spans(program, spans_path)
    program.stop()
    return phase


# -- write-refresh ----------------------------------------------------------------------

STORE_NAME = "stock"
GROUP_BY = "(t, SUM(y)) <- Stock(p, t, y)"
WR_FACTS = 240  # generated instance size (facts) saved with 8 shards
#: Share of conflicting Stock blocks.  A fresh read's branch-and-bound work
#: grows exponentially with the conflicts that cluster in one town: at 20%
#: write-refresh throughput differed by up to 1.66x between seeds, at 10% it
#: stayed within ±6% over six consecutive seeds.
WR_INCONSISTENCY = 0.1
WR_TAIL = 16  # removals left in the log for boot to replay and compact
WR_TAIL_BATCH = 4  # ops per logged commit of the tail
WRITES_PER_ROUND = 2  # remove one seeded fact, re-add one removed earlier
#: Repeated GROUP BY reads after the fresh read.  With 7 of them the
#: median read sits inside the repeated reads' mass and the 95th percentile
#: inside the fresh reads' mass, not in the gap between the two.
READS_PER_ROUND = 7
WR_ROUNDS = 4000
WR_SAMPLES = 4  # fresh reads also checked against a fresh engine


def _wr_instance(seed: int):
    from repro.workloads.generators import WorkloadSpec

    spec = WorkloadSpec(
        dealers=WR_FACTS // 10,
        products=WR_FACTS // 8,
        towns=WR_FACTS // 30,
        stock_facts=int(WR_FACTS * 0.7),
        inconsistency=WR_INCONSISTENCY,
    )
    return conditioned_instance(spec, seed, "write-refresh")


def _wr_plan(seed: int, base) -> Tuple[List[tuple], List[tuple]]:
    """The log tail (facts removed before boot) and the timed write ops.

    Writes alternate: remove a seeded present Stock fact, then re-add a
    seeded one of the removed facts, so the instance keeps a level size
    while its content keeps changing.
    """
    rng = random.Random(f"write-refresh:{seed}")
    present = sorted(
        (tuple(f.values) for f in base.facts if f.relation == "Stock"), key=repr
    )
    removed = []
    for _ in range(WR_TAIL):
        removed.append(present.pop(rng.randrange(len(present))))
    tail = list(removed)
    writes = []
    for _ in range(WR_ROUNDS):
        fact = present.pop(rng.randrange(len(present)))
        removed.append(fact)
        writes.append(("remove", fact))
        fact = removed.pop(rng.randrange(len(removed)))
        present.append(fact)
        writes.append(("add", fact))
    return tail, writes


def _prepare_store(directory: str, base, tail) -> int:
    """Snapshot ``base`` with 8 shards, then log ``tail`` uncompacted.

    Returns the stored version the server boots at."""
    from repro.datamodel.facts import Fact
    from repro.store import InstanceStore

    shutil.rmtree(directory, ignore_errors=True)
    store = InstanceStore(directory)
    store.save(STORE_NAME, base, version=1, shards=8)
    version = 1
    for start in range(0, len(tail), WR_TAIL_BATCH):
        version += 1
        ops = [("remove_fact", Fact("Stock", v)) for v in tail[start : start + WR_TAIL_BATCH]]
        store.mutate(STORE_NAME, ops, version=version, shards=8)
    return version


def per_town_bounds(stock_facts) -> Dict[tuple, Tuple]:
    """The per-town SUM range by its closed form.

    Every (product, town) block keeps exactly one fact in a repair, so a
    town's SUM ranges from the sum of its blocks' minima to the sum of
    their maxima.
    """
    blocks: Dict[tuple, List[int]] = {}
    for product, town, qty in stock_facts:
        blocks.setdefault((product, town), []).append(qty)
    towns: Dict[tuple, List[int]] = {}
    for (_product, town), qtys in blocks.items():
        low_high = towns.setdefault((town,), [0, 0])
        low_high[0] += min(qtys)
        low_high[1] += max(qtys)
    return {key: (Fraction(lo), Fraction(hi)) for key, (lo, hi) in towns.items()}


def _engine_bounds(schema, dealers, stock_facts) -> Dict[tuple, Tuple]:
    """The per-town range from a fresh engine on a rebuilt instance."""
    from repro.datamodel.instance import DatabaseInstance
    from repro.engine import ConsistentAnswerEngine
    from repro.query.parser import parse_aggregation_query

    instance = DatabaseInstance.from_rows(
        schema, {"Dealers": dealers, "Stock": sorted(stock_facts, key=repr)}
    )
    query = parse_aggregation_query(schema, GROUP_BY)
    answers = ConsistentAnswerEngine().answer_group_by(query, instance)
    return {
        key: (Fraction(a.glb), Fraction(a.lub)) for key, a in answers.items()
    }


def run_write_refresh(ctx, traced: bool, setups: int) -> Phase:
    # Every GROUP BY answer call is a read: the repeated reads set the
    # median, the fresh reads the tail.
    phase = Phase(read_classes=["fresh", "read"])
    base = _wr_instance(ctx.seed)
    schema = base.schema
    dealers = sorted((tuple(f.values) for f in base.facts if f.relation == "Dealers"), key=repr)
    tail, writes = _wr_plan(ctx.seed, base)
    initial = {tuple(f.values) for f in base.facts if f.relation == "Stock"} - set(tail)
    store_dir = os.path.join(ctx.workdir, "store")
    spans_path = os.path.join(ctx.workdir, "write-spans.json")
    args = ["--port", "0", "--store-dir", store_dir, "--no-builtins", "--trace-sample", "1"]
    gb_body = encode({"instance": STORE_NAME, "query": GROUP_BY})
    initial_bounds = per_town_bounds(initial)
    for attempt in range(setups):
        version = _prepare_store(store_dir, base, tail)
        program, port = start_server(ctx, args, traced, spans_path)
        client = Client(port)
        for _warm in range(2):  # a fresh read, then a cached one
            status, body = client.call("POST", "/answer_group_by", gb_body)
            if status != 200 or grouped(body["groups"]) != initial_bounds:
                raise RuntimeError(f"write-refresh warm-up answered {status}: {body}")
        phase.setup_s.append(time.perf_counter() - program.started)
        if attempt < setups - 1:
            client.close()
            program.stop()

    before = server_counters(client)
    rounds: List[dict] = []
    path = f"/instances/{STORE_NAME}"
    clock = time.perf_counter
    with pbutil.HostSampler(program.pid) as host:
        deadline = clock() + ctx.seconds
        while clock() < deadline and len(rounds) < WR_ROUNDS:
            number = len(rounds)
            done = {"writes": [], "reads": []}
            for position in range(WRITES_PER_ROUND):
                op, values = writes[number * WRITES_PER_ROUND + position]
                body = encode({"ops": [{"op": op, "relation": "Stock", "values": list(values)}]})
                rid = f"w{number}-{position}"
                t0 = clock()
                status, answer = client.call(
                    "PATCH", path, body, {"If-Match": str(version), TRACE_HEADER: rid}
                )
                end = clock()
                acked = status == 200 and isinstance(answer, dict)
                acked = acked and answer.get("version") == version + 1
                done["writes"].append((rid, (end - t0) * 1000.0, status, acked, end))
                if not acked:
                    break
                version += 1
            if len(done["writes"]) < WRITES_PER_ROUND or not done["writes"][-1][3]:
                # The client no longer knows the server's state: stop here.
                phase.fail(f"write {done['writes'][-1][0]} was not acknowledged")
                for rid, latency, status, acked, end in done["writes"]:
                    phase.record("write", latency, acked, rid=rid, done_at=end)
                    phase.rejected += status in (503, 504)
                break
            rid = f"f{number}"
            t0 = clock()
            status, answer = client.call("POST", "/answer_group_by", gb_body, {TRACE_HEADER: rid})
            end = clock()
            done["fresh"] = (rid, (end - t0) * 1000.0, status, _groups_of(answer), end)
            for position in range(READS_PER_ROUND):
                rid = f"r{number}-{position}"
                t0 = clock()
                status, answer = client.call("POST", "/answer_group_by", gb_body, {TRACE_HEADER: rid})
                end = clock()
                latency = (end - t0) * 1000.0
                done["reads"].append((rid, latency, status, _groups_of(answer), end))
            rounds.append(done)
    phase.host = host.samples
    phase.peak_rss_mb = pbutil.proc_peak_rss_mb(program.pid)
    phase.counters = {"before": before, "after": server_counters(client)}

    # Every fresh read against the mirror's closed form, every repeated read
    # against its fresh read; a seeded sample of rounds and the final state
    # also against a fresh engine on the rebuilt mirror.
    mirror = set(initial)
    samples = set(
        random.Random(f"write-refresh-sample:{ctx.seed}").sample(
            range(len(rounds)), min(WR_SAMPLES, len(rounds))
        )
    )
    for number, done in enumerate(rounds):
        for position, (rid, latency, status, acked, end) in enumerate(done["writes"]):
            op, values = writes[number * WRITES_PER_ROUND + position]
            (mirror.discard if op == "remove" else mirror.add)(values)
            phase.record("write", latency, acked, rid=rid, done_at=end)
        want = per_town_bounds(mirror)
        if number in samples and _engine_bounds(schema, dealers, mirror) != want:
            phase.fail(f"round {number}: the engine reference disagrees with the closed form")
        rid, latency, status, groups, end = done["fresh"]
        right = status == 200 and groups is not None and grouped(groups) == want
        phase.record("fresh", latency, right, rid=rid, done_at=end)
        if not right:
            phase.fail(f"fresh read {rid} answered {status} or a wrong answer")
        for rid, latency, status, same, end in done["reads"]:
            ok = right and status == 200 and same == groups
            phase.record("read", latency, ok, rid=rid, done_at=end)
            phase.rejected += status in (503, 504)
            if not ok:
                phase.fail(f"read {rid} answered {status} or differs from its fresh read")
        phase.rejected += done["fresh"][2] in (503, 504)
        phase.rejected += sum(w[2] in (503, 504) for w in done["writes"])

    want = per_town_bounds(mirror)
    if _engine_bounds(schema, dealers, mirror) != want:
        phase.fail("final state: the engine reference disagrees with the closed form")
    entry = _instance_entry(client)
    facts = len(mirror) + len(dealers)
    if entry is None or entry["version"] != version or entry["facts"] != facts:
        phase.fail(f"live state {entry} is not version {version} with {facts} facts")
    client.close()
    if traced:
        phase.spans = collect_spans(program, spans_path)
    _check_restart(ctx, phase, program, args, version, mirror, want)
    return phase


def _groups_of(answer):
    return answer.get("groups") if isinstance(answer, dict) else None


def _instance_entry(client: Client):
    """The store instance's ``GET /instances`` entry (``None`` if absent)."""
    status, listing = client.call("GET", "/instances")
    if status != 200 or not isinstance(listing, dict):
        return None
    return next(
        (i for i in listing.get("instances", []) if i.get("name") == STORE_NAME), None
    )


def _check_restart(ctx, phase, program, args, version, mirror, want) -> None:
    """SIGKILL the server, restart it on the same store and check that the
    last acknowledged version and its answer survived, and that the store
    holds exactly the mirror's facts."""
    from repro.store import InstanceStore

    program.stop(signal.SIGKILL)
    restarted, port = start_server(ctx, args, False, "")
    client = Client(port)
    entry = _instance_entry(client)
    if entry is None or entry["version"] != version:
        phase.fail(f"after SIGKILL and restart: {entry} is not at version {version}")
    status, answer = client.call(
        "POST", "/answer_group_by", encode({"instance": STORE_NAME, "query": GROUP_BY})
    )
    groups = _groups_of(answer)
    if status != 200 or groups is None or grouped(groups) != want:
        phase.fail("after SIGKILL and restart: the GROUP BY answer changed")
    client.close()
    restarted.stop()
    stored = InstanceStore(os.path.join(ctx.workdir, "store")).load(STORE_NAME)
    facts = {tuple(f.values) for f in stored.instance.facts if f.relation == "Stock"}
    if stored.version != version or facts != mirror:
        phase.fail("the store does not hold the mirror's final state")
