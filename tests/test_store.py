"""Tests for repro.store (durable instance store) and the serving write path.

Covers the acceptance criteria of the durability subsystem:

* kill-and-reopen round trips — snapshot only, snapshot + log replay,
  torn-tail truncation, compaction preserving answers;
* the registry write path — copy-on-write mutation, version bumps,
  ``expected_version`` optimistic concurrency (409 over HTTP), drops;
* restart survival end to end — a server started on a store directory,
  mutated over HTTP, stopped and restarted serves the mutated answers with
  the bumped version visible in ``/instances``;
* parity — answers after mutate + restart equal answers on a freshly built
  equivalent instance, across backends, sharded execution and the worker
  pool.
"""

import asyncio
import os
import pickle

import pytest

from repro.datamodel.facts import Fact
from repro.datamodel.instance import DatabaseInstance
from repro.engine import AnswerOptions, ConsistentAnswerEngine
from repro.engine.workers import WorkerPool
from repro.query.parser import parse_aggregation_query
from repro.serve import (
    ConsistentAnswerServer,
    InstanceRegistry,
    MutationError,
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    VersionConflictError,
)
from repro.store import (
    FactLog,
    InstanceStore,
    LogCorruptionWarning,
    LogRecord,
    SnapshotCorruptionWarning,
    StoreError,
)
from repro.workloads.scenarios import fig1_stock_instance, fig1_stock_schema

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_GROUP_BY = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"

NEW_FACT = ("Stock", ("Tesla Z", "Boston", 10))
REMOVED_FACT = ("Stock", ("Tesla Y", "New York", 96))


def mutated_stock_instance() -> DatabaseInstance:
    """The stock instance after the canonical test mutation, built fresh."""
    instance = fig1_stock_instance()
    instance.add_fact(Fact(*NEW_FACT))
    instance.remove_fact(Fact(*REMOVED_FACT))
    return instance


def stock_sum_query():
    return parse_aggregation_query(fig1_stock_schema(), STOCK_SUM)


# -- the append-only log ----------------------------------------------------------------


class TestFactLog:
    def test_append_and_replay_round_trip(self, tmp_path):
        log = FactLog(str(tmp_path / "facts.log"))
        records = [
            LogRecord("add_fact", 2, Fact("Stock", ("p", "t", 1))),
            LogRecord("remove_fact", 3, Fact("Stock", ("p", "t", 1))),
            LogRecord("drop", 4),
        ]
        for record in records:
            log.append(record)
        assert log.records() == records

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            LogRecord("mutate", 1)

    def test_torn_tail_is_truncated_with_warning(self, tmp_path):
        path = str(tmp_path / "facts.log")
        log = FactLog(path)
        log.append(LogRecord("add_fact", 2, Fact("R", ("a",))))
        intact_size = os.path.getsize(path)
        with open(path, "ab") as handle:  # a record whose payload was cut short
            handle.write(b"\x00\x00\x01\x00\xde\xad\xbe\xefpartial")
        with pytest.warns(LogCorruptionWarning):
            records = log.records()
        assert [r.version for r in records] == [2]
        assert os.path.getsize(path) == intact_size  # tail physically removed
        assert log.records() == records  # second read is clean, no warning

    def test_corrupt_checksum_drops_suffix(self, tmp_path):
        path = str(tmp_path / "facts.log")
        log = FactLog(path)
        log.append(LogRecord("add_fact", 2, Fact("R", ("a",))))
        offset = os.path.getsize(path)
        log.append(LogRecord("add_fact", 3, Fact("R", ("b",))))
        log.append(LogRecord("add_fact", 4, Fact("R", ("c",))))
        with open(path, "r+b") as handle:  # flip a byte inside record 2's payload
            handle.seek(offset + 10)
            original = handle.read(1)
            handle.seek(offset + 10)
            handle.write(bytes([original[0] ^ 0xFF]))
        with pytest.warns(LogCorruptionWarning):
            records = log.records()
        assert [r.version for r in records] == [2]

    def test_missing_file_is_empty(self, tmp_path):
        assert FactLog(str(tmp_path / "nope.log")).records() == []


# -- the instance store -----------------------------------------------------------------


class TestInstanceStore:
    def test_snapshot_round_trip(self, tmp_path):
        store = InstanceStore(str(tmp_path))
        instance = fig1_stock_instance()
        store.save("stock", instance, version=4, shards=3)
        reopened = InstanceStore(str(tmp_path))
        stored = reopened.load("stock")
        assert stored.version == 4
        assert stored.shards == 3
        assert stored.instance == instance
        assert stored.log_depth == 0
        assert reopened.names() == ["stock"]

    def test_mutations_replay_over_snapshot(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate("stock", [("add_fact", Fact(*NEW_FACT))], version=2)
        store.mutate("stock", [("remove_fact", Fact(*REMOVED_FACT))], version=3)
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 3
        assert stored.log_depth == 2
        assert stored.instance == mutated_stock_instance()

    def test_mutate_unknown_instance_rejected(self, tmp_path):
        store = InstanceStore(str(tmp_path))
        with pytest.raises(StoreError):
            store.mutate("ghost", [("add_fact", Fact(*NEW_FACT))], version=1)

    def test_auto_compaction_folds_log_and_preserves_state(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=2)
        store.save("stock", fig1_stock_instance(), version=1)
        current = DatabaseInstance(fig1_stock_schema(), fig1_stock_instance())
        current.add_fact(Fact(*NEW_FACT))
        depth = store.mutate(
            "stock", [("add_fact", Fact(*NEW_FACT))], version=2, instance=current
        )
        assert depth == 1  # below the threshold: still in the log
        current.remove_fact(Fact(*REMOVED_FACT))
        depth = store.mutate(
            "stock",
            [("remove_fact", Fact(*REMOVED_FACT))],
            version=3,
            instance=current,
        )
        assert depth == 0  # compacted: log folded into a fresh snapshot
        stats = store.stats()
        assert stats["compactions_total"] == 1
        assert stats["last_compaction_at"] is not None
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.log_depth == 0
        assert stored.version == 3
        assert stored.instance == mutated_stock_instance()

    def test_replay_skips_records_already_in_snapshot(self, tmp_path):
        """Crash window between compaction's snapshot and its log truncate."""
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate("stock", [("add_fact", Fact(*NEW_FACT))], version=2)
        # Simulate the crash: snapshot the post-mutation state at version 2
        # *without* truncating the log (bypassing save(), which truncates).
        stale_log = open(store._log_of("stock").path, "rb").read()
        current = store.load("stock")
        store.save("stock", current.instance, version=2)
        with open(store._log_of("stock").path, "wb") as handle:
            handle.write(stale_log)
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 2
        assert stored.log_depth == 0  # the v2 record is ≤ snapshot version
        assert len(stored.instance) == len(fig1_stock_instance()) + 1

    def test_replace_record_replays(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        replacement = mutated_stock_instance()
        store.replace("stock", replacement, version=5, shards=2)
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 5
        assert stored.shards == 2
        assert stored.instance == replacement

    def test_drop_survives_crash_before_directory_removal(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        # Crash-window simulation: append the drop record but "crash" before
        # the rmtree by writing it through the log directly.
        store._log_of("stock").append(LogRecord("drop", 2))
        assert InstanceStore(str(tmp_path)).load("stock").dropped
        loaded = InstanceStore(str(tmp_path)).open_all()
        assert loaded == {}  # the leftover directory was cleaned up
        assert InstanceStore(str(tmp_path)).names() == []

    def test_drop_removes_state(self, tmp_path):
        store = InstanceStore(str(tmp_path))
        store.save("stock", fig1_stock_instance(), version=1)
        assert store.drop("stock") is True
        assert store.drop("stock") is False
        assert store.load("stock") is None
        assert store.version_of("stock") is None

    def test_open_all_compacts_dirty_logs_for_spool_sharing(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate("stock", [("add_fact", Fact(*NEW_FACT))], version=2)
        reopened = InstanceStore(str(tmp_path))
        loaded = reopened.open_all()
        assert loaded["stock"].log_depth == 0
        path = reopened.snapshot_path("stock")
        assert path is not None
        with open(path, "rb") as handle:  # the snapshot is the full state
            snapshot = pickle.load(handle)
        assert snapshot.instance == loaded["stock"].instance
        assert snapshot.version == 2

    def test_multi_op_mutation_is_one_fsync_batch(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate(
            "stock",
            [("add_fact", Fact(*NEW_FACT)), ("remove_fact", Fact(*REMOVED_FACT))],
            version=2,
        )
        records = store._log_of("stock").records()
        assert [r.commit for r in records] == [False, True]
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.instance == mutated_stock_instance()

    def test_uncommitted_batch_tail_never_replays_partially(self, tmp_path):
        """Crash mid-batch: the partial mutation must be invisible after
        reopen — all-or-nothing on disk, not just in memory."""
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        # Simulate the crash: only the first (non-commit) record of a
        # two-op batch made it to disk.
        store._log_of("stock").append_batch(
            [LogRecord("add_fact", 2, Fact(*NEW_FACT), commit=False)]
        )
        with pytest.warns(LogCorruptionWarning, match="uncommitted"):
            stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 1
        assert Fact(*NEW_FACT) not in stored.instance
        assert stored.instance == fig1_stock_instance()

    def test_orphaned_batch_cannot_merge_with_later_same_version_write(
        self, tmp_path
    ):
        """The orphan is truncated off the file on first read, so a later
        accepted write that reuses the crashed batch's version can never
        pick up its records on replay."""
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store._log_of("stock").append_batch(
            [LogRecord("add_fact", 2, Fact(*NEW_FACT), commit=False)]
        )
        reopened = InstanceStore(str(tmp_path), compact_every=0)
        with pytest.warns(LogCorruptionWarning, match="uncommitted"):
            assert reopened.version_of("stock") == 1
        assert reopened._log_of("stock").records() == []  # physically gone
        other = Fact("Stock", ("Tesla W", "Boston", 5))
        reopened.mutate("stock", [("add_fact", other)], version=2)
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert other in stored.instance
        assert Fact(*NEW_FACT) not in stored.instance  # orphan never replays
        assert stored.version == 2

    def test_stats_and_version_of_come_from_the_meta_cache(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate("stock", [("add_fact", Fact(*NEW_FACT))], version=2)
        assert store.version_of("stock") == 2
        # a fresh handle fills its cache from disk once, then serves hits
        reopened = InstanceStore(str(tmp_path))
        assert reopened.version_of("stock") == 2
        stats = reopened.stats()
        assert stats["versions"] == {"stock": 2}
        assert stats["log_depth"] == {"stock": 1}

    def test_torn_log_tail_recovers_through_store(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        store.mutate("stock", [("add_fact", Fact(*NEW_FACT))], version=2)
        with open(store._log_of("stock").path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x40torn-me")
        with pytest.warns(LogCorruptionWarning):
            stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 2
        assert Fact(*NEW_FACT) in stored.instance

    def test_names_with_awkward_characters(self, tmp_path):
        store = InstanceStore(str(tmp_path))
        awkward = "prod/eu-west 1:sensors#v2"
        store.save(awkward, fig1_stock_instance(), version=1)
        assert InstanceStore(str(tmp_path)).names() == [awkward]
        assert InstanceStore(str(tmp_path)).load(awkward) is not None


# -- snapshot checksums -----------------------------------------------------------------


def _corrupt_snapshot(store: InstanceStore, name: str) -> str:
    """Flip one byte inside the snapshot's pickle body (trailer intact)."""
    path = store.snapshot_path(name)
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    raw[len(raw) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(raw)
    return path


class TestSnapshotChecksum:
    def test_snapshot_carries_crc_trailer_and_roundtrips(self, tmp_path):
        from repro.store.store import _CRC_MAGIC, _CRC_TRAILER

        store = InstanceStore(str(tmp_path))
        store.save("stock", fig1_stock_instance(), version=1)
        path = store.snapshot_path("stock")
        with open(path, "rb") as handle:
            raw = handle.read()
        assert raw[-_CRC_TRAILER:-4] == _CRC_MAGIC
        stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.instance.facts == fig1_stock_instance().facts

    def test_corrupt_snapshot_falls_back_to_log_replay(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        replacement = mutated_stock_instance()
        store.replace("stock", replacement, version=2, shards=3)
        _corrupt_snapshot(store, "stock")
        with pytest.warns(SnapshotCorruptionWarning, match="rebuilt from the log"):
            stored = InstanceStore(str(tmp_path)).load("stock")
        assert stored.version == 2
        assert stored.shards == 3
        assert stored.instance.facts == replacement.facts

    def test_corruption_without_replacement_record_surfaces(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        _corrupt_snapshot(store, "stock")
        with pytest.raises(StoreError, match="no\\s+full replacement record"):
            InstanceStore(str(tmp_path)).load("stock")
        # The boot path skips the unrecoverable instance instead of dying.
        with pytest.warns(SnapshotCorruptionWarning, match="skipped"):
            loaded = InstanceStore(str(tmp_path)).open_all()
        assert loaded == {}

    def test_boot_compaction_heals_a_corrupt_snapshot(self, tmp_path):
        store = InstanceStore(str(tmp_path), compact_every=0)
        store.save("stock", fig1_stock_instance(), version=1)
        replacement = mutated_stock_instance()
        store.replace("stock", replacement, version=2)
        _corrupt_snapshot(store, "stock")
        with pytest.warns(SnapshotCorruptionWarning):
            loaded = InstanceStore(str(tmp_path)).open_all()
        assert loaded["stock"].instance.facts == replacement.facts
        # open_all compacted the rebuilt state into a fresh, valid snapshot.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            healed = InstanceStore(str(tmp_path)).load("stock")
        assert healed.version == 2
        assert healed.instance.facts == replacement.facts


# -- datamodel write helpers ------------------------------------------------------------


class TestDatamodelWriteHelpers:
    def test_remove_fact_maintains_block_index(self):
        instance = fig1_stock_instance()
        fact = Fact(*REMOVED_FACT)
        blocks_before = len(instance.blocks())
        instance.remove_fact(fact)
        assert fact not in instance
        # The ("Tesla Y", "New York") block shrank from 2 facts to 1.
        assert len(instance.blocks()) == blocks_before
        assert instance.block_of(Fact("Stock", ("Tesla Y", "New York", 95))) == {
            Fact("Stock", ("Tesla Y", "New York", 95))
        }
        # Removing the last fact of a block deletes the block entirely.
        instance.remove_fact(Fact("Stock", ("Tesla Y", "New York", 95)))
        assert len(instance.blocks()) == blocks_before - 1
        assert instance.repair_count() > 0

    def test_remove_absent_fact_raises(self):
        instance = fig1_stock_instance()
        with pytest.raises(KeyError):
            instance.remove_fact(Fact("Stock", ("nope", "nowhere", 1)))
        assert instance.discard_fact(Fact("Stock", ("nope", "nowhere", 1))) is False

    def test_data_version_bumps_on_every_write(self):
        instance = fig1_stock_instance()
        before = instance.data_version
        fact = Fact(*NEW_FACT)
        instance.add_fact(fact)
        assert instance.data_version == before + 1
        instance.add_fact(fact)  # idempotent add: no change, no bump
        assert instance.data_version == before + 1
        instance.remove_fact(fact)
        assert instance.data_version == before + 2
        # remove+add of the same cardinality still changes the token — the
        # property the shard-plan and worker-ref caches rely on.
        assert len(instance) == len(fig1_stock_instance())
        assert instance.data_version != before


# -- the registry write path ------------------------------------------------------------


def wire_ops():
    return [
        ("add_fact", NEW_FACT[0], NEW_FACT[1]),
        ("remove_fact", REMOVED_FACT[0], REMOVED_FACT[1]),
    ]


class TestRegistryWritePath:
    def test_mutate_is_copy_on_write_and_bumps_version(self):
        registry = InstanceRegistry({"stock": fig1_stock_instance()})
        old_entry = registry.get("stock")
        new_entry = registry.mutate("stock", wire_ops())
        assert new_entry.version == old_entry.version + 1
        assert old_entry.instance == fig1_stock_instance()  # reader untouched
        assert new_entry.instance == mutated_stock_instance()
        assert new_entry.instance is not old_entry.instance
        assert registry.get("stock").describe()["version"] == 2

    def test_expected_version_conflict(self):
        registry = InstanceRegistry({"stock": fig1_stock_instance()})
        registry.mutate("stock", wire_ops(), expected_version=1)
        with pytest.raises(VersionConflictError):
            registry.mutate("stock", wire_ops(), expected_version=1)

    def test_invalid_ops_reject_whole_batch(self):
        registry = InstanceRegistry({"stock": fig1_stock_instance()})
        with pytest.raises(MutationError):
            registry.mutate(
                "stock",
                [
                    ("add_fact", NEW_FACT[0], NEW_FACT[1]),
                    ("remove_fact", "Stock", ("ghost", "gone", 1)),
                ],
            )
        entry = registry.get("stock")
        assert entry.version == 1  # nothing applied, nothing bumped
        assert Fact(*NEW_FACT) not in entry.instance
        with pytest.raises(MutationError):
            registry.mutate("stock", [])

    def test_replace_continues_version_count(self):
        registry = InstanceRegistry({"stock": fig1_stock_instance()})
        registry.mutate("stock", wire_ops())
        entry = registry.register("stock", fig1_stock_instance(), replace=True)
        assert entry.version == 3

    def test_store_backed_registry_survives_reload(self, tmp_path):
        store = InstanceStore(str(tmp_path))
        registry = InstanceRegistry(store=store)
        registry.register("stock", fig1_stock_instance(), shards=2)
        registry.mutate("stock", wire_ops())
        registry.register("other", fig1_stock_instance())
        registry.drop("other")

        fresh = InstanceRegistry(store=InstanceStore(str(tmp_path)))
        assert fresh.load_store() == ["stock"]
        entry = fresh.get("stock")
        assert entry.version == 2
        assert entry.shards == 2
        assert entry.instance == mutated_stock_instance()

    def test_subscribers_see_write_events(self):
        events = []
        registry = InstanceRegistry()
        registry.subscribe(lambda event, name: events.append((event, name)))
        registry.register("stock", fig1_stock_instance())
        registry.mutate("stock", [("add_fact", NEW_FACT[0], NEW_FACT[1])])
        registry.register("stock", fig1_stock_instance(), replace=True)
        registry.drop("stock")
        assert events == [
            ("register", "stock"),
            ("mutate", "stock"),
            ("replace", "stock"),
            ("drop", "stock"),
        ]


# -- serving: the write path over HTTP --------------------------------------------------


def serve_scenario(coro_fn, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("workers", 2)

    async def main():
        server = ConsistentAnswerServer(ServeConfig(**config_kwargs))
        await server.start()
        try:
            host, port = server.address
            async with ServeClient(host, port) as client:
                return await coro_fn(server, client)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestServeMutation:
    def test_mutation_changes_answers_and_version(self):
        async def scenario(server, client):
            before = await client.answer("stock", STOCK_SUM)
            described = await client.mutate_instance(
                "stock",
                [
                    ("add", *NEW_FACT),
                    ("remove", *REMOVED_FACT),
                ],
                expected_version=1,
            )
            assert described["version"] == 2
            assert described["facts"] == len(mutated_stock_instance())
            after = await client.answer("stock", STOCK_SUM)
            engine = ConsistentAnswerEngine()
            expected = engine.answer(stock_sum_query(), mutated_stock_instance())
            assert after == expected
            assert after != before
            listed = {
                item["name"]: item["version"] for item in await client.instances()
            }
            assert listed["stock"] == 2

        serve_scenario(scenario)

    def test_version_conflict_is_409(self):
        async def scenario(server, client):
            await client.mutate_instance(
                "stock", [("add", *NEW_FACT)], expected_version=1
            )
            with pytest.raises(ServeClientError) as err:
                await client.mutate_instance(
                    "stock", [("remove", *NEW_FACT)], expected_version=1
                )
            assert err.value.status == 409
            assert err.value.error_type == "VersionConflictError"

        serve_scenario(scenario)

    def test_bad_ops_are_structured_400(self):
        async def scenario(server, client):
            # malformed op payloads rejected server-side (raw requests: the
            # typed client helper already refuses to encode these)
            for payload in (
                {"ops": []},
                {"ops": [{"op": "frobnicate", "relation": "Stock", "values": [1]}]},
                {"ops": [{"op": ["add"], "relation": "Stock", "values": [1]}]},
                {"ops": [{"op": "add", "relation": "", "values": [1]}]},
                {"ops": [{"op": "add", "relation": "Stock"}]},
                {"ops": "not-a-list"},
                {},
            ):
                status, body = await client.request(
                    "PATCH", "/instances/stock", payload
                )
                assert status == 400
                assert body["error"]["type"] == "ProtocolError"
            # a client-side malformed op never reaches the wire
            with pytest.raises(ProtocolError):
                await client.mutate_instance(
                    "stock", [("frobnicate", "Stock", ("a", "b", 1))]
                )
            # removing an absent fact is a 400 MutationError
            with pytest.raises(ServeClientError) as err:
                await client.mutate_instance(
                    "stock", [("remove", "Stock", ("ghost", "gone", 1))]
                )
            assert err.value.status == 400
            assert err.value.error_type == "MutationError"
            # arity violations are schema errors, also 400
            with pytest.raises(ServeClientError) as err:
                await client.mutate_instance("stock", [("add", "Stock", ("x",))])
            assert err.value.status == 400

        serve_scenario(scenario)

    def test_mutate_unknown_instance_404_and_wrong_method_405(self):
        async def scenario(server, client):
            with pytest.raises(ServeClientError) as err:
                await client.mutate_instance("ghost", [("add", *NEW_FACT)])
            assert err.value.status == 404
            status, _body = await client.request("POST", "/instances/stock")
            assert status == 405
            # the removed POST /instances/{name}/facts alias is no route
            status, _body = await client.request(
                "POST", "/instances/stock/facts", {"ops": []}
            )
            assert status == 404
            # 405s on dynamic routes label metrics with the path *template*,
            # not the raw instance name (bounded cardinality)
            metrics = await client.metrics()
            assert "/instances/{name}" in metrics["requests_total"]
            assert "/instances/stock" not in metrics["requests_total"]

        serve_scenario(scenario)

    def test_delete_endpoint_drops_instance(self):
        async def scenario(server, client):
            with pytest.raises(ServeClientError) as err:
                await client.drop_instance("stock", expected_version=7)
            assert err.value.status == 409
            dropped = await client.drop_instance("stock", expected_version=1)
            assert dropped == {"dropped": "stock", "version": 1}
            with pytest.raises(ServeClientError) as err:
                await client.answer("stock", STOCK_SUM)
            assert err.value.status == 404
            with pytest.raises(ServeClientError) as err:
                await client.drop_instance("stock")
            assert err.value.status == 404

        serve_scenario(scenario)

    def test_store_stats_reported(self, tmp_path):
        async def scenario(server, client):
            await client.mutate_instance("stock", [("add", *NEW_FACT)])
            health = await client.healthz()
            assert health["store"]["enabled"] is True
            assert health["store"]["instances"] == 2
            metrics = await client.metrics()
            store = metrics["store"]
            assert store["versions"]["stock"] == 2
            assert store["appends_total"] == 1
            assert store["log_depth"]["stock"] == 1

        serve_scenario(scenario, store_dir=str(tmp_path))

    def test_metrics_disabled_store_section(self):
        async def scenario(server, client):
            health = await client.healthz()
            assert health["store"] == {"enabled": False}
            metrics = await client.metrics()
            assert metrics["store"] == {"enabled": False}

        serve_scenario(scenario)


class TestPatchMutationApi:
    """The consolidated write surface: ``PATCH /instances/{name}`` with an
    ``If-Match`` precondition, and the deprecated POST shim behind it."""

    OPS = {"ops": [{"op": "add", "relation": NEW_FACT[0], "values": list(NEW_FACT[1])}]}

    def test_patch_reports_delta_footprint(self):
        async def scenario(server, client):
            status, body = await client.request(
                "PATCH", "/instances/stock", self.OPS, headers={"If-Match": "1"}
            )
            assert status == 200
            assert body["version"] == 2
            assert body["applied"] == 1
            assert body["touched_blocks"] == [
                {"relation": "Stock", "key": ["Tesla Z", "Boston"]}
            ]
            assert body["mutated"]["version"] == 2
            # the typed client helper uses the PATCH route (no deprecation)
            described = await client.mutate_instance(
                "stock", [("remove", *NEW_FACT)], expected_version=2
            )
            assert described["version"] == 3
            assert "deprecation" not in client.last_response_headers

        serve_scenario(scenario)

    def test_if_match_grammar_and_precedence(self):
        async def scenario(server, client):
            # quoted ETag spelling is accepted
            status, body = await client.request(
                "PATCH", "/instances/stock", self.OPS, headers={"If-Match": '"1"'}
            )
            assert status == 200 and body["version"] == 2
            # "*" means no precondition
            status, body = await client.request(
                "PATCH",
                "/instances/stock",
                {"ops": [{"op": "remove", "relation": NEW_FACT[0],
                          "values": list(NEW_FACT[1])}]},
                headers={"If-Match": "*"},
            )
            assert status == 200 and body["version"] == 3
            # header wins over a contradicting body expected_version
            status, body = await client.request(
                "PATCH",
                "/instances/stock",
                {**self.OPS, "expected_version": 999},
                headers={"If-Match": "3"},
            )
            assert status == 200 and body["version"] == 4
            # stale precondition: 409 with the structured conflict error
            status, body = await client.request(
                "PATCH", "/instances/stock", self.OPS, headers={"If-Match": "1"}
            )
            assert status == 409
            assert body["error"]["type"] == "VersionConflictError"
            # garbage preconditions are protocol errors, not conflicts
            for bad in ("zero", "0", "-3", '"'):
                status, body = await client.request(
                    "PATCH", "/instances/stock", self.OPS, headers={"If-Match": bad}
                )
                assert status == 400
                assert body["error"]["type"] == "ProtocolError"

        serve_scenario(scenario)


# -- restart survival (the acceptance criterion) ----------------------------------------


def restart_scenario(store_dir, first, second, **config_kwargs):
    """Run ``first`` against a fresh server, restart on the same store
    directory, then run ``second`` against the new server."""
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("workers", 2)

    async def main():
        results = []
        for phase in (first, second):
            server = ConsistentAnswerServer(
                ServeConfig(store_dir=str(store_dir), **config_kwargs)
            )
            await server.start()
            try:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    results.append(await phase(server, client))
            finally:
                await server.stop()
        return results

    return asyncio.run(main())


class TestRestartSurvival:
    def test_mutation_survives_restart(self, tmp_path):
        async def mutate_phase(server, client):
            await client.mutate_instance(
                "stock",
                [("add", *NEW_FACT), ("remove", *REMOVED_FACT)],
                expected_version=1,
            )
            return await client.answer("stock", STOCK_SUM)

        async def verify_phase(server, client):
            listed = {
                item["name"]: item["version"] for item in await client.instances()
            }
            assert listed["stock"] == 2  # bumped version visible after restart
            return await client.answer("stock", STOCK_SUM)

        first, second = restart_scenario(tmp_path, mutate_phase, verify_phase)
        engine = ConsistentAnswerEngine()
        expected = engine.answer(stock_sum_query(), mutated_stock_instance())
        assert first == expected
        assert second == expected

    def test_registered_instance_and_drop_survive_restart(self, tmp_path):
        async def write_phase(server, client):
            await client.register_instance(
                "stock_copy", fig1_stock_instance(), shards=2
            )
            await client.drop_instance("running_example")
            return sorted(i["name"] for i in await client.instances())

        async def verify_phase(server, client):
            listed = {i["name"]: i for i in await client.instances()}
            # the registered instance survived, with its shard opt-in
            assert listed["stock_copy"]["shards"] == 2
            # dropped builtins are re-seeded at boot (documented), fresh at v1
            assert listed["running_example"]["version"] == 1
            return sorted(listed)

        first, second = restart_scenario(tmp_path, write_phase, verify_phase)
        assert "stock_copy" in first and "stock_copy" in second

    def test_group_by_parity_after_mutate_and_restart_across_backends(
        self, tmp_path
    ):
        """Answers after mutate+restart == answers on a freshly built
        equivalent instance, for every backend and for sharded execution."""

        async def mutate_phase(server, client):
            await client.mutate_instance(
                "stock", [("add", *NEW_FACT), ("remove", *REMOVED_FACT)]
            )
            return None

        async def read_phase(server, client):
            return (
                await client.answer("stock", STOCK_SUM),
                await client.answer_group_by("stock", STOCK_GROUP_BY),
            )

        for backend in ("operational", "sqlite"):
            store_dir = tmp_path / backend
            _, (closed, grouped) = restart_scenario(
                store_dir, mutate_phase, read_phase, backend=backend
            )
            engine = ConsistentAnswerEngine(backend=backend)
            fresh = mutated_stock_instance()
            assert closed == engine.answer(stock_sum_query(), fresh)
            group_query = parse_aggregation_query(
                fig1_stock_schema(), STOCK_GROUP_BY
            )
            assert grouped == engine.answer_group_by(group_query, fresh)
            # sharded execution on the reloaded instance merges to the same
            sharded = engine.answer(
                stock_sum_query(), fresh, options=AnswerOptions(shards=3)
            )
            assert sharded == closed


# -- worker pool integration ------------------------------------------------------------


class TestStoreWorkerPool:
    def test_pool_serves_a_reloaded_instance_and_later_mutations(self, tmp_path):
        async def mutate_phase(server, client):
            await client.mutate_instance(
                "stock", [("add", *NEW_FACT), ("remove", *REMOVED_FACT)]
            )

        async def verify_phase(server, client):
            answers = [await client.answer("stock", STOCK_SUM)]
            for op in (("remove", *NEW_FACT), ("add", *REMOVED_FACT)):
                await client.mutate_instance("stock", [op])
                answers.append(await client.answer("stock", STOCK_SUM))
            per_worker = server._pool.stats()["per_worker"]
            return answers, sum(w.get("answer_jobs", 0) for w in per_worker)

        _, (answers, answer_jobs) = restart_scenario(
            tmp_path, mutate_phase, verify_phase, worker_processes=1
        )
        assert answer_jobs == 3  # every answer ran on the pool
        reloaded = mutated_stock_instance()
        once = reloaded.copy()
        once.remove_fact(Fact(*NEW_FACT))
        twice = fig1_stock_instance()
        engine = ConsistentAnswerEngine()
        expected = [
            engine.answer(stock_sum_query(), state)
            for state in (reloaded, once, twice)
        ]
        assert len(set(map(str, expected))) == 3  # each write moves the answer
        assert answers == expected

    def test_chunks_route_by_least_queue_depth(self):
        query = stock_sum_query()
        instance = fig1_stock_instance()
        with WorkerPool(workers=2) as pool:
            # Wedge worker 0 under three slow jobs; chunk routing must then
            # prefer worker 1 for every chunk (depth 0..2 vs 3).
            blockers = [pool._submit(0, "sleep", (0.6,)) for _ in range(3)]
            chunks = [[(0, query, instance)], [(1, query, instance)]]
            results = pool.run_chunks(chunks, timeout=30)
            assert sorted(r.index for r in results) == [0, 1]
            for blocker in blockers:
                blocker.result(timeout=30)
            stats = pool.stats()
            per_worker = {w["worker"]: w for w in stats["per_worker"]}
            assert per_worker[1]["chunk_jobs"] == 2
            assert "chunk_jobs" not in per_worker[0] or (
                per_worker[0].get("chunk_jobs", 0) == 0
            )
            assert all("queue_depth" in w for w in stats["per_worker"])

    def test_queue_depth_gauge_counts_pending_jobs(self):
        with WorkerPool(workers=2) as pool:
            blocker = pool._submit(0, "sleep", (0.5,))
            depths = {
                w["worker"]: w["queue_depth"]
                for w in pool.stats()["per_worker"]
            }
            assert depths[0] >= 1
            assert depths[1] == 0
            blocker.result(timeout=30)
            assert all(
                w["queue_depth"] == 0 for w in pool.stats()["per_worker"]
            )
