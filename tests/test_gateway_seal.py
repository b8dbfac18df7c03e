"""Which lone datagrams seal a block.

`Gateway.handle_datagram` seals one block after a request that submitted a
transaction, whether its receipt reverted or not, and none after a request
that submitted nothing.
"""

import pytest

from thingchain import Node, Signer
from thingchain.codec import decode_values, encode_values
from thingchain.gateway import Gateway, GatewayConfig, wire


@pytest.fixture
def build(tmp_path):
    made = []

    def make(tx_cap=1024):
        council = Signer.from_seed("council")
        config = GatewayConfig(master_seed="gw-master",
                               journal_path=str(tmp_path / f"gw{len(made)}.journal"),
                               requesters={"ep:council": "council"})
        gateway = Gateway(Node({council.account: 100}, tx_cap=tx_cap), config)
        made.append(gateway)
        gateway.register_thing("t1", endpoint="sim:t1")
        return gateway

    yield make
    for gateway in made:
        gateway.close()


def put(msg_id, payload, thing="t1"):
    return wire.request(wire.PUT, msg_id, f"/things/{thing}/data", payload).encode()


def post(msg_id):
    return wire.request(wire.POST, msg_id, "/things/t1/actuate",
                        encode_values(["open", b""])).encode()


def test_lone_datagrams_seal_a_block_only_when_they_submit(build):
    gateway = build()
    node = gateway.node
    acked = put(1, encode_values([21_000, "C", 5]))
    get_last = wire.request(wire.GET, 8, "/things/t1/last").encode()
    cases = [   # (what, datagram, source, blocks sealed, reply type, error reason)
        ("ACKed PUT", acked, "sim:t1", 1, wire.MSG_ACK, None),
        ("reverted PUT", put(2, encode_values([20_000, "C", 3])), "sim:t1", 1,
         wire.MSG_ERROR, "TickRegression"),
        ("denied POST", post(3), "ep:council", 1, wire.MSG_ERROR, "NotAuthorized"),
        ("retransmit", acked, "sim:t1", 0, wire.MSG_ACK, None),
        ("bad payload", put(4, b"\xff\xff"), "sim:t1", 0, wire.MSG_ERROR, "BadPayload"),
        ("unknown thing", put(5, encode_values([1, "C"]), thing="t9"), "sim:t9", 0,
         wire.MSG_ERROR, "UnknownThing"),
        ("malformed datagram", b"\x09\x00\x01\xab\xcd", "x", 0, wire.MSG_ERROR, "BadVersion"),
        ("GET", get_last, "ep:anyone", 0, wire.MSG_ACK, None),
        ("POST from an unknown requester", post(6), "ep:unknown", 0,
         wire.MSG_ERROR, "UnknownRequester"),
    ]
    replies = {}
    for what, data, source, sealed, msg_type, reason in cases:
        height = node.height
        replies[what] = raw = gateway.handle_datagram(data, source)
        reply = wire.decode_message(raw)
        assert node.height - height == sealed, what
        assert [len(block.txs) for block in node.blocks[height + 1:]] == [1] * sealed, what
        assert node.pending_count == 0, what
        assert reply.msg_type == msg_type, what
        assert reply.message_id == wire.peek_message_id(data), what
        if reason is not None:
            assert wire.error_reason(reply)[0] == reason, what
    assert replies["retransmit"] == replies["ACKed PUT"]
    assert decode_values(wire.decode_message(replies["ACKed PUT"]).payload) == \
        ["ok", (0).to_bytes(8, "big")]
    assert decode_values(wire.decode_message(replies["GET"]).payload)[:3] == [21_000, "C", 5]


def test_a_put_that_fills_the_block_also_seals_an_empty_one(build):
    gateway = build(tx_cap=1)
    node = gateway.node
    height = node.height
    reply = wire.decode_message(gateway.handle_datagram(put(1, encode_values([1, "C"])),
                                                        "sim:t1"))
    assert reply.msg_type == wire.MSG_ACK
    # the push fills (and so seals) one block, and the gateway seals after it
    assert [len(block.txs) for block in node.blocks[height + 1:]] == [1, 0]
