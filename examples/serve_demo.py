"""Serving-layer walkthrough: boot, register, query, mutate, restart, observe.

Runs entirely in-process (server on an ephemeral port, async client in the
same event loop) and demonstrates the full serving surface:

1. boot the server with the paper's example instances pre-registered —
   backed by a durable store directory (``--store-dir`` in production);
2. answer the introduction's SUM query over HTTP — the exact [70, 96];
3. GROUP BY per dealer, plus a per-request binding for one group;
4. register a *new* instance over the wire and query it;
5. batch several queries through /answer_many;
6. mutate the registered instance through the write path
   (PATCH /instances/{name} with If-Match) with optimistic concurrency,
   and watch the answer and the version change;
7. stop the server, boot a fresh one on the same store directory, and show
   the mutation survived the restart — version intact;
8. read /metrics: plan-cache hits prove requests share compiled plans.

Run with: PYTHONPATH=src python examples/serve_demo.py
"""

import asyncio
import tempfile

from repro.datamodel.instance import DatabaseInstance
from repro.datamodel.signature import RelationSignature, Schema
from repro.serve import (
    ConsistentAnswerServer,
    ServeClient,
    ServeClientError,
    ServeConfig,
)

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
STOCK_GROUP_BY = "(x, SUM(y)) <- Dealers(x, t), Stock(p, t, y)"


def build_sensor_instance() -> DatabaseInstance:
    """A small inconsistent sensor database to register over HTTP."""
    schema = Schema(
        [
            RelationSignature(
                "Readings",
                3,
                2,
                numeric_positions=(3,),
                attribute_names=("Sensor", "Hour", "Value"),
            )
        ]
    )
    return DatabaseInstance.from_rows(
        schema,
        {
            "Readings": [
                ("s1", "09h", 21),
                ("s1", "09h", 23),  # conflicting reading, same key
                ("s2", "09h", 19),
            ]
        },
    )


async def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="repro-demo-store-")
    server = ConsistentAnswerServer(
        ServeConfig(port=0, workers=4, store_dir=store_dir)
    )
    host, port = await server.start()
    print(f"server: http://{host}:{port}  instances={server.registry.names()}")
    print(f"durable store: {store_dir}")

    async with ServeClient(host, port) as client:
        answer = await client.answer("stock", STOCK_SUM)
        print(f"\nSUM over dbStock (Fig. 1): {answer}")

        groups = await client.answer_group_by("stock", STOCK_GROUP_BY)
        print("per-dealer GROUP BY:")
        for key, group_answer in sorted(groups.items(), key=repr):
            print(f"  {key[0]:>6}: {group_answer}")

        james = await client.answer("stock", STOCK_GROUP_BY, binding={"x": "James"})
        print(f"bound to James only: {james}")

        registered = await client.register_instance(
            "sensors", build_sensor_instance()
        )
        print(
            f"\nregistered 'sensors': {registered['facts']} facts, "
            f"{registered['inconsistent_blocks']} inconsistent block(s)"
        )
        sensor_sum = await client.answer("sensors", "SUM(v) <- Readings(s, h, v)")
        print(f"SUM over all readings: {sensor_sum}")

        batch = await client.answer_many(
            [
                ("stock", STOCK_SUM),
                ("stock", STOCK_SUM),  # identical: plan-cache hit
                ("sensors", "MAX(v) <- Readings(s, h, v)"),
            ]
        )
        print("\nbatch results:")
        for item in batch:
            label = item.get("answer") or f"{len(item['groups'])} groups"
            print(
                f"  [{item['index']}] {item['instance']:>8} "
                f"cached={item['plan_cached']} -> {label}"
            )

        # The write path: mutate the sensor database in place over HTTP.
        # expected_version makes concurrent writers safe: the losing writer
        # gets a clean 409 instead of silently interleaving.
        mutated = await client.mutate_instance(
            "sensors",
            [
                ("add", "Readings", ["s3", "09h", 25]),
                ("remove", "Readings", ["s1", "09h", 23]),  # retract the glitch
            ],
            expected_version=1,
        )
        print(
            f"\nmutated 'sensors' -> version {mutated['version']}, "
            f"{mutated['facts']} facts"
        )
        try:
            await client.mutate_instance(
                "sensors",
                [("add", "Readings", ["s4", "09h", 1])],
                expected_version=1,
            )
        except ServeClientError as exc:
            print(f"stale writer rejected: {exc.status} {exc.error_type}")
        sensor_sum = await client.answer("sensors", "SUM(v) <- Readings(s, h, v)")
        print(f"SUM over all readings after mutation: {sensor_sum}")

        metrics = await client.metrics()
        cache = metrics["plan_cache"]
        print(
            f"\nplan cache after serving: hits={cache['hits']} "
            f"misses={cache['misses']} hit_rate={cache['hit_rate']:.0%}"
        )
        total = sum(
            count
            for by_status in metrics["requests_total"].values()
            for count in by_status.values()
        )
        print(f"requests served: {total}")
        store = metrics["store"]
        print(
            f"store: {store['instances']} instance(s), "
            f"versions={store['versions']}"
        )

    await server.stop()

    # Restart on the same store directory: everything — the wire-registered
    # instance, the mutation, the bumped version — survives the process.
    server = ConsistentAnswerServer(
        ServeConfig(port=0, workers=4, store_dir=store_dir)
    )
    host, port = await server.start()
    async with ServeClient(host, port) as client:
        listed = {item["name"]: item for item in await client.instances()}
        sensors = listed["sensors"]
        print(
            f"\nafter restart: instances={sorted(listed)}\n"
            f"'sensors' came back at version {sensors['version']} "
            f"with {sensors['facts']} facts"
        )
        sensor_sum = await client.answer("sensors", "SUM(v) <- Readings(s, h, v)")
        print(f"SUM over all readings after restart: {sensor_sum}")
    await server.stop()


if __name__ == "__main__":
    asyncio.run(main())
