"""Self-test of the benchmark's correctness checks.

Every check is shown to accept the program's real output and to reject a
deliberately wrong value (a wrong stats count, a wrong resolved record, a
different digest, ...), so that no check passes vacuously.  Then each
workload runs for a fraction of a second at small sizes with all its checks.

    python3 bench/selftest.py

Run from the root of a source checkout; takes a few seconds.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from thingchain import Node, Signer, replay  # noqa: E402
from thingchain import resolver  # noqa: E402
from thingchain.codec import enc_u64, encode_values  # noqa: E402
from thingchain.contracts.topic import topic_matches  # noqa: E402
from thingchain.gateway import wire  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SMALL = workloads.Sizes(
    gateway_things=4, actuating_things=2, city_things=12, districts=2, topics=2,
    subscriptions=6, city_pushes=3, ingest_round_ops=200)

failures = []


def accepts(name, fn, *args):
    try:
        fn(*args)
    except CheckFailed as exc:
        failures.append(f"{name}: rejected a correct value ({exc})")
        print(f"FAIL accepts {name}")
        return
    print(f"ok   accepts {name}")


def rejects(name, fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        print(f"ok   rejects {name}")
        return
    failures.append(f"{name}: accepted a wrong value")
    print(f"FAIL rejects {name}")


def ledger_checks() -> None:
    alice = Signer.from_seed("selftest/alice")
    node = Node({alice.account: 500})
    node.create_account("selftest/alice")
    _, feed = node.deploy(alice, "feed")
    values, ticks = [1500, -250, 3001, 7], [1, 1, 3, 4]
    receipts = [node.call(alice, feed, "push", encode_values([v, "C", t]))
                for v, t in zip(values, ticks)]
    node.seal_block()

    accepts("push index", checks.check_receipt, receipts[2], enc_u64(2))
    rejects("push index off by one", checks.check_receipt, receipts[2], enc_u64(3))

    stats = node.static(feed, "stats", [1, 3])
    want = checks.window_stats(values, ticks, len(values), 1, 3)
    accepts("stats window", checks.check_stats, stats, want)
    rejects("stats with a wrong count", checks.check_stats, stats, want[:3] + [want[3] + 1])
    rejects("stats with a wrong average", checks.check_stats, stats,
            [want[0], want[1], want[2] + 1, want[3]])
    last = node.static(feed, "last", [])
    accepts("last", checks.check_last, last, 7, "C", 4)
    rejects("last with a wrong value", checks.check_last, last, 8, "C", 4)

    _, root = node.deploy(alice, "zone")
    _, child = node.deploy(alice, "zone")
    node.call(alice, root, "delegate", encode_values(["d0", child]))
    key = bytes(range(32))
    node.call(alice, child, "set_mapping", encode_values(["t1", key, "coap://t1/data", b""]))
    _, topic = node.deploy(alice, "topic")
    for pattern in ("city/#", "city/+/air", "#", "city/d1/noise"):
        node.call(alice, topic, "subscribe", encode_values([pattern, 1, b"https://s"]))
    node.seal_block()
    published = node.call(alice, topic, "publish", encode_values(["city/d0/air", b"x"]))
    node.seal_block()

    result = resolver.resolve(node, "t1.d0", [root])
    accepts("resolved record", checks.check_resolved, result, key, "coap://t1/data")
    rejects("a wrong resolved record", checks.check_resolved, result, key, "coap://t2/data")
    rejects("a wrong resolved key", checks.check_resolved, result, bytes(32), "coap://t1/data")

    accepts("publish count", checks.check_published, published, 3)
    rejects("a wrong publish count", checks.check_published, published, 2)

    export = node.export_bytes()
    digest = replay(export)
    accepts("replay", checks.check_replay, node, export, digest, 500)
    rejects("a different digest", checks.check_replay, node, export, bytes(32), 500)
    rejects("a wrong genesis total", checks.check_replay, node, export, digest, 501)


def wire_checks() -> None:
    ok = wire.ack(7, encode_values(["ok", enc_u64(4)])).encode()
    accepts("ack", checks.ack_payload, ok, 7)
    rejects("an ack with another message id", checks.ack_payload, ok, 8)
    rejects("an error reply", checks.ack_payload, wire.error(7, "Boom").encode(), 7)
    accepts("PUT index", checks.check_put, checks.ack_payload(ok, 7), 4)
    rejects("a wrong PUT index", checks.check_put, checks.ack_payload(ok, 7), 5)
    rejects("a denied actuation", checks.check_granted,
            encode_values(["ok", encode_values(["denied", "NotAuthorized"])]))

    def delivery(thing, args, caller=b"c" * 32):
        payload = encode_values([5, 0, 0, "set", args, caller])
        return wire.request(wire.POST, 1, f"/things/{thing}/event", payload).encode()

    expected = {("t1", b"a"): ("e1", b"c" * 32), ("t2", b"b"): ("e2", b"c" * 32)}
    both = [("e1", delivery("t1", b"a")), ("e2", delivery("t2", b"b"))]
    accepts("deliveries", checks.check_deliveries, both, expected)
    rejects("a missing delivery", checks.check_deliveries, both[:1], expected)
    rejects("a repeated delivery", checks.check_deliveries, both + both[:1], expected)
    rejects("a delivery to another endpoint", checks.check_deliveries,
            [("e2", delivery("t1", b"a")), both[1]], expected)


def computation_checks() -> None:
    cases = {(5, 2): 3, (-5, 2): -3, (4, 3): 1, (-4, 3): -1, (7, 7): 1}
    for (total, count), want in cases.items():
        if checks.half_up_average(total, count) != want:
            failures.append(f"half_up_average({total}, {count}) != {want}")
    paths = ["city", "city/d0", "city/d0/air", "city/d0/air/s1", "town/d0/air/s1"]
    patterns = ["#", "city/#", "city/+", "city/+/air/#", "+/d0/+/s1", "city/d0/air/s1", "+"]
    for pattern in patterns:
        for path in paths:
            if checks.pattern_matches(pattern, path) != topic_matches(pattern, path):
                failures.append(f"pattern_matches({pattern!r}, {path!r}) disagrees")
    print("ok   half-up averages and topic matching" if not failures else "FAIL computations")


def city_checks(workdir: Path) -> None:
    plan = workloads.CityPlan(3, SMALL)
    city = workloads.City(plan, str(workdir / "selftest-city.journal"))
    try:
        todo = city.run(plan, lambda fn, *args: fn(*args))
        accepts("a city round", city.verify, plan, todo)
        plan.steps[plan.steps[-1].resolves[0]].service_key = bytes(32)
        rejects("a city round with a wrong resolved record", city.verify, plan, todo)
    finally:
        city.close()


def workload_runs(workdir: Path) -> None:
    for name in workloads.WORKLOADS:
        result = workloads.WORKLOADS[name](name, 11, 0.3, None, str(workdir), SMALL)
        if result.attempted < 1 or result.failed:
            failures.append(f"{name}: {result.failed} of {result.attempted} ops failed")
        print(f"ok   {name} at small sizes: {result.attempted} ops checked")


def main() -> int:
    workdir = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ledger_checks()
        wire_checks()
        computation_checks()
        city_checks(workdir)
        workload_runs(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
