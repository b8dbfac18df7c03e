"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures.  Everything here is deterministic and self-contained."""

import random
import time

import pytest

from thingchain import Node, Signer, replay
from thingchain.codec import decode_values, encode_values
from thingchain.contracts.actuation import GRANTED, request_outcome
from thingchain.errors import (
    BrokenChain,
    DanglingDelegation,
    LoopDetected,
    NameNotFound,
)
from thingchain.gateway import Gateway, GatewayConfig, wire
from thingchain.resolver import resolve
from thingchain.scenario import ScenarioRunner

try:
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None

SEED = 7


def _pass(name: str, detail: str = "") -> None:
    print(f"PASS  {name}" + (f"  ({detail})" if detail else ""))


def _script_text() -> str:
    path = resource_files("thingchain") / "scenarios" / "smart_building.scn"
    return path.read_text()


@pytest.fixture(scope="module")
def building_run(tmp_path_factory):
    """One full smart-building run kept around for criteria 2 and 9."""
    workdir = tmp_path_factory.mktemp("accept")
    export = workdir / "building.chain"
    runner = ScenarioRunner(seed=SEED, workdir=str(workdir))
    started = time.monotonic()
    report = runner.run(_script_text(), export_path=str(export))
    duration = time.monotonic() - started
    assert report.exit_code == 0, report.failure
    return runner, report, export, duration


# -----------------------------------------------------------------------------

def test_criterion_1_determinism(building_run):
    """Three independent runs, fixed seed, >=200 txs, bit-identical digests,
    each under 10 seconds."""
    _, first_report, _, first_duration = building_run
    assert first_report.tx_count >= 200
    digests = [first_report.final_digest]
    durations = [first_duration]
    for _ in range(2):
        started = time.monotonic()
        report = ScenarioRunner(seed=SEED).run(_script_text())
        durations.append(time.monotonic() - started)
        assert report.exit_code == 0, report.failure
        digests.append(report.final_digest)
    assert len(set(digests)) == 1
    assert all(d < 10.0 for d in durations), durations
    _pass("criterion 1: determinism",
          f"3 runs, {first_report.tx_count} txs, digest {digests[0][:16]}…, "
          f"slowest {max(durations):.2f}s")


def test_criterion_2_append_only_replay(building_run):
    runner, _, export, _ = building_run
    data = export.read_bytes()
    assert replay(data) == runner.node.state_digest()

    rng = random.Random(0xC0FFEE)
    detected = 0
    for _ in range(100):
        corrupted = bytearray(data)
        pos = rng.randrange(len(corrupted))
        corrupted[pos] = (corrupted[pos] + rng.randrange(1, 256)) % 256
        try:
            replay(bytes(corrupted))
        except BrokenChain:
            detected += 1
    assert detected == 100
    _pass("criterion 2: append-only & replay",
          f"live digest reproduced; {detected}/100 corruptions detected")


# -----------------------------------------------------------------------------

def _build_zone_tree(rng: random.Random):
    """Random tree of zone contracts plus the flat name->key directory that
    the generator (not the resolver) knows the answers from."""
    owner = Signer.from_seed("forest")
    node = Node({owner.account: 1})
    node.create_account("forest")
    _, root = node.deploy(owner, "zone")
    zones = {(): root}
    directory = {}
    labels = ["ab", "cd", "ef", "gh", "ij"]
    for _ in range(rng.randint(1, 50)):
        if len(directory) >= 50:
            break
        path = tuple(rng.choice(labels) for _ in range(rng.randint(1, 4)))
        for i in range(1, len(path)):
            prefix = path[:i]
            if prefix not in zones:
                _, child = node.deploy(owner, "zone")
                node.call(owner, zones[prefix[:-1]], "delegate",
                          encode_values([prefix[-1], child]))
                zones[prefix] = child
        key = f"k/{'.'.join(path)}".encode()
        node.call(owner, zones[path[:-1]], "set_mapping",
                  encode_values([path[-1], key, "", b""]))
        directory[".".join(reversed(path))] = key
    node.seal_block()
    return node, owner, root, directory, labels


def test_criterion_3_resolution_oracle():
    rng = random.Random(313)
    trees = 0
    names = 0
    for _ in range(200):
        node, owner, root, directory, labels = _build_zone_tree(rng)
        trees += 1
        for name, key in directory.items():
            result = resolve(node, name, root)
            assert result.record.service_key == key
            assert result.depth == len(name.split("."))
            names += 1
        for _ in range(5):
            probe = ".".join(rng.choice(labels)
                             for _ in range(rng.randint(1, 4)))
            probe = "zz." + probe
            if probe in directory:
                continue
            with pytest.raises(NameNotFound):
                resolve(node, probe, root)

    # loops and dangling delegations surface as their own error types
    node, owner, root, directory, _ = _build_zone_tree(rng)
    _, za = node.deploy(owner, "zone")
    _, zb = node.deploy(owner, "zone")
    node.call(owner, root, "delegate", encode_values(["loopa", za]))
    node.call(owner, za, "delegate", encode_values(["loopb", zb]))
    node.call(owner, zb, "delegate", encode_values(["loopa", za]))
    _, dead = node.deploy(owner, "zone")
    node.call(owner, root, "delegate", encode_values(["dead", dead]))
    node.call(owner, dead, "kill")
    node.seal_block()
    with pytest.raises(LoopDetected):
        resolve(node, "x.loopb.loopa.loopb.loopa", root)
    with pytest.raises(DanglingDelegation):
        resolve(node, "x.dead", root)
    _pass("criterion 3: resolution oracle",
          f"{trees} trees, {names} resolved names, absent/loop/dangling checked")


# -----------------------------------------------------------------------------

def _oracle_matches(pattern: str, path: str) -> bool:
    def rec(pat, top):
        if not pat:
            return not top
        if pat[0] == "#":
            return True
        if not top:
            return False
        if pat[0] == "+" or pat[0] == top[0]:
            return rec(pat[1:], top[1:])
        return False

    return rec(pattern.split("/"), path.split("/"))


def test_criterion_4_pubsub_oracle():
    rng = random.Random(4444)
    owner = Signer.from_seed("broker")
    node = Node({owner.account: 1})
    node.create_account("broker")
    labels = ["a", "b", "c", "d"]

    def random_pattern():
        depth = rng.randint(1, 4)
        segs = [rng.choice(labels + ["+"]) for _ in range(depth)]
        if rng.random() < 0.25:
            segs[-1] = "#"
        return "/".join(segs)

    cases = 0
    for _ in range(500):
        _, topic = node.deploy(owner, "topic")
        subs = []
        for _ in range(rng.randint(0, 6)):
            receipt = node.call(owner, topic, "subscribe",
                                encode_values([random_pattern(), 1, b"uri"]))
            subs.append(int.from_bytes(receipt.return_value, "big"))
        node.seal_block()
        # read the stored patterns back off-chain, like any subscriber could
        patterns = {}
        for sub_id in subs:
            raw = node.read_state(topic, b"sub/" + sub_id.to_bytes(8, "big"))
            patterns[sub_id] = decode_values(raw)[0]
        path = "/".join(rng.choice(labels) for _ in range(rng.randint(1, 4)))
        receipt = node.call(owner, topic, "publish", encode_values([path, b"x"]))
        node.seal_block()
        notified = sorted(decode_values(e.payload)[0] for e in receipt.events)
        expected = sorted(s for s, p in patterns.items() if _oracle_matches(p, path))
        assert notified == expected, (path, patterns)
        cases += 1
    _pass("criterion 4: pub-sub oracle", f"{cases} random publish cases matched")


# -----------------------------------------------------------------------------

def test_criterion_5_escrow_conservation():
    rng = random.Random(5555)
    customer = Signer.from_seed("customer")
    provider = Signer.from_seed("provider")
    node = Node({customer.account: 100_000})
    node.create_account("customer")
    node.create_account("provider")
    _, escrow = node.deploy(customer, "escrow")
    node.seal_block()
    supply = node.total_supply()

    settled = set()
    deadlines = {}
    open_deals = []
    ops = 0
    early_refunds_rejected = 0
    double_settles_rejected = 0
    while ops < 1000:
        action = rng.choice(("commit", "confirm", "refund", "re-settle", "tick"))
        ops += 1
        if action == "commit":
            amount = rng.randint(0, 20)
            if node.balance(customer.account) < amount:
                continue
            deadline = node.height + rng.randint(0, 3)
            receipt = node.call(customer, escrow, "commit",
                                encode_values([provider.account, deadline]),
                                tokens=amount)
            node.seal_block()
            assert receipt.ok
            deal = int.from_bytes(receipt.return_value, "big")
            open_deals.append(deal)
            deadlines[deal] = deadline
        elif action == "tick":
            node.seal_block()
        elif action == "re-settle" and settled:
            deal = rng.choice(sorted(settled))
            receipt = node.call(customer, escrow,
                                rng.choice(("confirm", "refund")),
                                encode_values([deal]))
            node.seal_block()
            assert receipt.reason == "AlreadySettled"
            double_settles_rejected += 1
        elif action in ("confirm", "refund") and open_deals:
            deal = rng.choice(open_deals)
            execute_height = node.height + 1
            receipt = node.call(customer, escrow, action, encode_values([deal]))
            node.seal_block()
            if action == "refund" and execute_height <= deadlines[deal]:
                assert receipt.reason == "TooEarly"
                early_refunds_rejected += 1
            else:
                assert receipt.ok, receipt.reason
                settled.add(deal)
                open_deals.remove(deal)
        assert node.total_supply() == supply
    assert early_refunds_rejected > 0
    assert double_settles_rejected > 0
    _pass("criterion 5: escrow conservation",
          f"{ops} ops, supply constant at {supply}, "
          f"{early_refunds_rejected} early refunds and "
          f"{double_settles_rejected} re-settles rejected")


# -----------------------------------------------------------------------------

def test_criterion_6_skeleton_upgrade():
    owner = Signer.from_seed("upgrader")
    node = Node({owner.account: 10})
    node.create_account("upgrader")
    _, skeleton = node.deploy(owner, "skeleton")
    _, buggy = node.deploy(owner, "feed")
    _, fixed = node.deploy(owner, "feed")
    for tick in range(1, 31):
        node.call(owner, buggy, "push", encode_values([tick * 1_000, "C", tick]))
        node.call(owner, fixed, "push",
                  encode_values([tick * 1_000 + 500, "C", tick]))
    node.call(owner, skeleton, "update", encode_values(["stats", buggy]))
    node.seal_block()

    def routed(window):
        impl = node.static(skeleton, "lookup", ["stats"])
        return node.static(impl, "stats", list(window))

    before = decode_values(routed((1, 30)))
    node.call(owner, skeleton, "update", encode_values(["stats", fixed]))
    node.seal_block()
    after = decode_values(routed((1, 30)))
    assert before != after
    assert after[2] == before[2] + 500          # the fix is visible

    history = [v for _, v in node.history(skeleton, b"impl/stats")]
    assert history == [buggy, fixed]            # both swaps on the ledger

    rng = random.Random(66)
    checked = 0
    for _ in range(100):
        lo = rng.randint(1, 30)
        hi = rng.randint(lo, 30)
        assert routed((lo, hi)) == node.static(fixed, "stats", [lo, hi])
        checked += 1
    _pass("criterion 6: skeleton upgrade",
          f"old-then-new behavior, history shows both impls, "
          f"{checked} routed==direct windows")


def test_criterion_7_kill_switch():
    owner = Signer.from_seed("killer")
    node = Node({owner.account: 100})
    node.create_account("killer")
    _, feed = node.deploy(owner, "feed")
    node.call(owner, feed, "push", encode_values([21_000, "C", 1]), tokens=7)
    node.call(owner, feed, "push", encode_values([22_000, "C", 2]))
    node.seal_block()
    pre_kill_keys = {key: node.read_state(feed, key) for key in node.state_keys(feed)}
    owner_before = node.balance(owner.account)

    receipt = node.call(owner, feed, "kill")
    node.seal_block()
    assert receipt.ok
    assert node.balance(owner.account) == owner_before + 7
    assert node.contract_info(feed).balance == 0

    rng = random.Random(77)
    methods = ["push", "last", "stats", "allow_writer", "made_up"]
    rejected = 0
    for _ in range(100):
        receipt = node.call(owner, feed, rng.choice(methods))
        assert receipt.reason == "ContractKilled"
        rejected += 1
    node.seal_block()

    for key, value in pre_kill_keys.items():
        assert node.read_state(feed, key) == value
    assert [v for _, v in node.history(feed, b"last")] == [
        encode_values([21_000, "C", 1]), encode_values([22_000, "C", 2])]
    _pass("criterion 7: kill switch",
          f"{rejected}/100 post-kill calls rejected, 7 tokens returned, "
          f"{len(pre_kill_keys)} state keys still readable")


# -----------------------------------------------------------------------------

def _fresh_gateway(tmp_path, tag: str):
    council = Signer.from_seed("council")
    auditor = Signer.from_seed("auditor")
    node = Node({council.account: 50, auditor.account: 50})
    config = GatewayConfig(
        master_seed="accept-gw",
        journal_path=str(tmp_path / f"{tag}.journal"),
        requesters={"ep:council": "council", "ep:auditor": "auditor"},
    )
    return Gateway(node, config)


def test_criterion_8_gateway_soundness(tmp_path, request):
    rng = random.Random(8888)
    gw = _fresh_gateway(tmp_path, "soundness")
    request.addfinalizer(gw.close)
    regs = [gw.register_thing(f"t{i}", endpoint=f"sim:t{i}") for i in range(3)]
    gw.allow_requester(regs[0], "ep:council")
    base_txs = sum(len(b.txs) for b in gw.node.blocks) + gw.node.pending_count

    ticks = {reg.thing_id: 0 for reg in regs}
    acked_writes = 0
    denied_posts = 0
    errors_ok = 0
    sent = 0

    def random_malformed(msg_id: int) -> bytes:
        choice = rng.randrange(6)
        if choice == 0:    # wrong version
            good = wire.request(wire.GET, msg_id, "/things/t0/last").encode()
            return bytes([7]) + good[1:]
        if choice == 1:    # truncated after header
            return wire.request(wire.PUT, msg_id, "/things/t0/data",
                                b"x" * 20).encode()[: rng.randint(5, 8)]
        if choice == 2:    # trailing junk
            return wire.request(wire.GET, msg_id, "/things/t0/last").encode() + b"!"
        if choice == 3:    # unknown thing
            return wire.request(wire.GET, msg_id, "/things/ghost/last").encode()
        if choice == 4:    # bad path
            return wire.request(wire.GET, msg_id, "/what/even/is/this").encode()
        # undecodable PUT payload
        return wire.request(wire.PUT, msg_id, "/things/t0/data", b"\xff\x00").encode()

    for i in range(1000):
        msg_id = (i + 1) & 0xFFFF
        kind = rng.randrange(10)
        sent += 1
        if kind < 4:        # valid PUT
            reg = rng.choice(regs)
            ticks[reg.thing_id] += 1
            msg = wire.request(wire.PUT, msg_id, f"/things/{reg.thing_id}/data",
                               encode_values([rng.randint(-40_000, 40_000), "C",
                                              ticks[reg.thing_id]]))
            reply = wire.decode_message(
                gw.handle_datagram(msg.encode(), f"sim:{reg.thing_id}"))
            assert reply.msg_type == wire.MSG_ACK
            assert reply.message_id == msg_id
            acked_writes += 1
        elif kind == 4:     # valid GET (never a write)
            reg = rng.choice(regs)
            what = "last" if ticks[reg.thing_id] else "stats?from=0&to=9"
            msg = wire.request(wire.GET, msg_id, f"/things/{reg.thing_id}/{what}")
            reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:x"))
            assert reply.message_id == msg_id
        elif kind == 5:     # authorized POST
            msg = wire.request(wire.POST, msg_id, "/things/t0/actuate",
                               encode_values(["valve", b""]))
            reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:council"))
            assert reply.msg_type == wire.MSG_ACK
            acked_writes += 1
        elif kind == 6:     # unauthorized POST: denied on-chain, Error reply
            msg = wire.request(wire.POST, msg_id, "/things/t1/actuate",
                               encode_values(["valve", b""]))
            reply = wire.decode_message(gw.handle_datagram(msg.encode(), "ep:auditor"))
            assert reply.msg_type == wire.MSG_ERROR
            assert wire.error_reason(reply)[0] == "NotAuthorized"
            assert reply.message_id == msg_id
            denied_posts += 1
        else:               # malformed
            reply = wire.decode_message(gw.handle_datagram(random_malformed(msg_id), "ep:x"))
            assert reply.msg_type == wire.MSG_ERROR
            assert reply.message_id == msg_id
            errors_ok += 1

    total_txs = sum(len(b.txs) for b in gw.node.blocks) + gw.node.pending_count
    chain_writes = total_txs - base_txs
    assert chain_writes == acked_writes + denied_posts

    ok_pushes = 0
    granted = 0
    for block in gw.node.blocks:
        for tx, receipt in zip(block.txs, block.receipts):
            if tx.method == "push" and receipt.ok:
                ok_pushes += 1
            elif tx.method == "request" and receipt.ok:
                granted += request_outcome(receipt.return_value) == GRANTED
    assert ok_pushes + granted == acked_writes

    # crash/restart: no on-chain event lost (receiver dedup by height/tx_index)
    crash_gw = _fresh_gateway(tmp_path, "crash")
    reg = crash_gw.register_thing("tx", endpoint="sim:tx")
    crash_gw.allow_requester(reg, "ep:council")
    node = crash_gw.node

    def actuate(g, action):
        msg = wire.request(wire.POST, 77, "/things/tx/actuate",
                           encode_values([action, b""]))
        assert wire.decode_message(
            g.handle_datagram(msg.encode(), "ep:council")).msg_type == wire.MSG_ACK

    actuate(crash_gw, "a1")
    actuate(crash_gw, "a2")
    crash_gw.poll_events()
    crash_gw.close()                    # crash; journal survives
    successor = Gateway(node, crash_gw.config)
    request.addfinalizer(successor.close)
    actuate(successor, "a3")
    successor.poll_events()
    received = {}
    for _, data in crash_gw.transport.datagrams + successor.transport.datagrams:
        msg = wire.decode_message(data)
        h, i, _, action, _, _ = decode_values(msg.payload)
        received.setdefault((h, i), action)
    onchain = {}
    for block in node.blocks:
        for i, receipt in enumerate(block.receipts):
            for event in receipt.events:
                if event.name == "Actuate":
                    onchain[(block.height, i)] = decode_values(event.payload)[0]
    assert received == onchain and len(onchain) == 3

    _pass("criterion 8: gateway soundness",
          f"{sent} datagrams: {acked_writes} acked writes == on-chain, "
          f"{denied_posts} denials logged, {errors_ok} malformed -> Error, "
          f"restart lost 0/{len(onchain)} events")


def test_criterion_9_no_secrets(building_run):
    runner, _, export, _ = building_run
    gateway = runner.gateway
    node = runner.node

    secrets = []
    for thing_id in gateway.things:
        secrets.append(gateway._thing_signer(thing_id).private_bytes())
    for seed in gateway.config.requesters.values():
        secrets.append(Signer.from_seed(seed).private_bytes())
    for signer in runner.accounts.values():
        secrets.append(signer.private_bytes())
    assert secrets and all(len(s) == 32 for s in secrets)

    blobs = [export.read_bytes()]
    blobs.extend(data for _, _, data in gateway.traffic)
    contracts = {tx.target for block in node.blocks for tx in block.txs
                 if tx.target is not None and node.contract_exists(tx.target)}
    for address in contracts:
        for key in node.state_keys(address):
            value = node.read_state(address, key)
            if value is not None:
                blobs.append(value)
    scanned = 0
    for secret in secrets:
        for blob in blobs:
            assert secret not in blob
            scanned += 1
    _pass("criterion 9: no custodied key bytes",
          f"{len(secrets)} keys x {len(blobs)} blobs scanned ({scanned} checks)")
