"""Transactions, receipts, events, blocks and the chain export file format.

Wire rules that keep replay self-contained:
  - a transaction carries the sender's verification key; the sender account id
    is its digest, so signatures can be checked from the chain file alone;
  - block 0 ("genesis") has no parent, so its prev_hash slot anchors the
    digest of the genesis configuration; corrupting the exported config breaks
    the chain at height 0 like any other link failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Reader, enc_bytes, enc_str, enc_u8, enc_u32, enc_u64, frame
from .errors import BrokenChain, DecodeError
from .keys import ALGORITHM, DIGEST_SIZE, account_id, digest

# target tag bytes
_TARGET_DEPLOY = 0
_TARGET_ADDRESS = 1

STATUS_OK = "ok"
STATUS_REVERTED = "reverted"


def _signing_bytes(sender_key: bytes, nonce: int, target: bytes | None, method: str,
                   args: bytes, tokens: int) -> bytes:
    """The canonical encoding of a transaction's fields, which its signature covers."""
    if target is None:
        target_part = enc_u8(_TARGET_DEPLOY)
    else:
        target_part = enc_u8(_TARGET_ADDRESS) + target
    return b"".join([enc_bytes(sender_key), enc_u64(nonce), target_part, enc_str(method),
                     enc_bytes(args), enc_u64(tokens)])


@dataclass(frozen=True)
class Transaction:
    sender_key: bytes        # Ed25519 verification key (32 bytes)
    nonce: int
    target: bytes | None     # None = deploy a new contract
    method: str              # code id for deploys, method name for calls
    args: bytes
    tokens: int
    signature: bytes = b""

    @property
    def sender(self) -> bytes:
        return account_id(self.sender_key)

    def signing_bytes(self) -> bytes:
        return _signing_bytes(self.sender_key, self.nonce, self.target, self.method,
                              self.args, self.tokens)

    def encode(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "Transaction":
        r = Reader(data)
        sender_key = r.bytes_()
        nonce = r.u64()
        tag = r.u8()
        if tag == _TARGET_DEPLOY:
            target = None
        elif tag == _TARGET_ADDRESS:
            target = r.take(DIGEST_SIZE)
        else:
            raise DecodeError(f"unknown target tag {tag}")
        method = r.str_()
        args = r.bytes_()
        tokens = r.u64()
        signature = r.bytes_()
        r.expect_end()
        return cls(sender_key, nonce, target, method, args, tokens, signature)


def make_transaction(
    signer,
    nonce: int,
    target: bytes | None,
    method: str,
    args: bytes = b"",
    tokens: int = 0,
) -> Transaction:
    """Build and sign a transaction over the canonical encoding."""
    key = signer.verify_key_bytes
    signature = signer.sign(_signing_bytes(key, nonce, target, method, args, tokens))
    return Transaction(key, nonce, target, method, args, tokens, signature)


@dataclass(frozen=True)
class Event:
    source: bytes            # emitting contract address
    name: str
    payload: bytes
    height: int
    tx_index: int

    def encode(self) -> bytes:
        return b"".join([
            self.source,
            enc_str(self.name),
            enc_bytes(self.payload),
            enc_u64(self.height),
            enc_u32(self.tx_index),
        ])

    @classmethod
    def read(cls, r: Reader) -> "Event":
        return cls(r.take(DIGEST_SIZE), r.str_(), r.bytes_(), r.u64(), r.u32())


@dataclass(frozen=True)
class Receipt:
    status: str              # STATUS_OK or STATUS_REVERTED
    reason: str = ""         # reason code when reverted
    return_value: bytes = b""
    events: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def encode(self) -> bytes:
        if self.ok:
            head = enc_u8(0)
        else:
            head = enc_u8(1) + enc_str(self.reason)
        body = [head, enc_bytes(self.return_value), enc_u32(len(self.events))]
        body.extend(e.encode() for e in self.events)
        return b"".join(body)

    @property
    def receipt_digest(self) -> bytes:
        return digest(b"receipt:" + self.encode())

    @classmethod
    def decode(cls, data: bytes) -> "Receipt":
        r = Reader(data)
        tag = r.u8()
        if tag == 0:
            status, reason = STATUS_OK, ""
        elif tag == 1:
            status, reason = STATUS_REVERTED, r.str_()
        else:
            raise DecodeError(f"unknown receipt status tag {tag}")
        return_value = r.bytes_()
        events = tuple(Event.read(r) for _ in range(r.u32()))
        r.expect_end()
        return cls(status, reason, return_value, events)


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    timestamp: int           # logical tick, == height
    txs: tuple = ()
    receipts: tuple = ()
    block_hash: bytes = b""

    def header_bytes(self) -> bytes:
        parts = [
            enc_u64(self.height),
            self.prev_hash,
            enc_u64(self.timestamp),
            enc_u32(len(self.txs)),
        ]
        parts.extend(enc_bytes(tx.encode()) for tx in self.txs)
        parts.append(enc_u32(len(self.receipts)))
        parts.extend(enc_bytes(rc.encode()) for rc in self.receipts)
        return b"".join(parts)

    def compute_hash(self) -> bytes:
        return digest(b"block:" + self.header_bytes())

    def encode(self) -> bytes:
        return self.header_bytes() + self.block_hash

    @classmethod
    def seal(cls, height: int, prev_hash: bytes, timestamp: int, txs, receipts) -> "Block":
        blk = cls(height, prev_hash, timestamp, tuple(txs), tuple(receipts))
        return cls(height, prev_hash, timestamp, blk.txs, blk.receipts, blk.compute_hash())

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        r = Reader(data)
        height = r.u64()
        prev_hash = r.take(DIGEST_SIZE)
        timestamp = r.u64()
        txs = tuple(Transaction.decode(r.bytes_()) for _ in range(r.u32()))
        receipts = tuple(Receipt.decode(r.bytes_()) for _ in range(r.u32()))
        block_hash = r.take(DIGEST_SIZE)
        r.expect_end()
        return cls(height, prev_hash, timestamp, txs, receipts, block_hash)


@dataclass(frozen=True)
class GenesisConfig:
    """Parameters fixed at chain creation and anchored in genesis.prev_hash."""

    alloc: tuple = ()            # ((account_id, tokens), ...) initial supply
    tx_cap: int = 1024           # per-block transaction cap
    algorithm: str = ALGORITHM

    def encode(self) -> bytes:
        parts = [enc_str(self.algorithm), enc_u64(self.tx_cap), enc_u32(len(self.alloc))]
        for account, amount in self.alloc:
            parts.append(account)
            parts.append(enc_u64(amount))
        return b"".join(parts)

    @property
    def config_digest(self) -> bytes:
        return digest(b"genesis:" + self.encode())

    @classmethod
    def decode(cls, data: bytes) -> "GenesisConfig":
        r = Reader(data)
        algorithm = r.str_()
        tx_cap = r.u64()
        alloc = tuple((r.take(DIGEST_SIZE), r.u64()) for _ in range(r.u32()))
        r.expect_end()
        return cls(alloc, tx_cap, algorithm)


def genesis_block(config: GenesisConfig) -> Block:
    return Block.seal(0, config.config_digest, 0, (), ())


# ---------------------------------------------------------------------------
# Chain export files: magic, config record, then one block per record, each a
# ``codec.frame`` whose checksum catches a flipped byte before hash
# verification even runs.

CHAIN_MAGIC = b"TCHN\x01"


def dump_chain(config: GenesisConfig, blocks) -> bytes:
    out = [CHAIN_MAGIC, frame(config.encode())]
    out.extend(frame(block.encode()) for block in blocks)
    return b"".join(out)


def load_chain(data: bytes) -> tuple[GenesisConfig, list]:
    """Parse an export; framing and decoding faults surface as BrokenChain at
    the failing block height (the config record counts as height 0)."""
    if not data.startswith(CHAIN_MAGIC):
        raise BrokenChain(0, "bad chain file magic")
    r = Reader(data)
    r.take(len(CHAIN_MAGIC))
    blocks = []
    try:
        config = GenesisConfig.decode(r.frame())
        while not r.exhausted:
            blocks.append(Block.decode(r.frame()))
    except DecodeError as exc:
        raise BrokenChain(len(blocks), str(exc)) from exc
    return config, blocks
