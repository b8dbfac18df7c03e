"""Off-chain data pointer: location, content digest and provenance metadata.

The content digest is fixed on first announcement; the location and metadata
may be re-announced (e.g. after a storage node moves), so the hash keeps
verifying the same content wherever it lives.

State layout:
    item/<item id>      encoded [uri, content_hash, producer_sig, description]
"""

from __future__ import annotations

from ..codec import decode_values, encode_values
from ..keys import DIGEST_SIZE, digest
from ..runtime import Behavior, Revert, want_bytes, want_str

ITEM_PREFIX = b"item/"


class PointerContract(Behavior):
    code_id = "pointer"
    exports = ("announce", "verify", "describe")

    def announce(self, ctx, args):
        """(item_id, uri, content_hash, producer_sig, description)."""
        ctx.require_owner()
        item_id = want_bytes(args, 0, "item id")
        uri = want_str(args, 1, "uri")
        content_hash = want_bytes(args, 2, "content hash")
        producer_sig = want_bytes(args, 3, "producer signature")
        description = want_bytes(args, 4, "description")
        if len(content_hash) != DIGEST_SIZE:
            raise Revert("BadArgs", f"content hash must be {DIGEST_SIZE} bytes")
        key = ITEM_PREFIX + item_id
        existing = ctx.get(key)
        if existing is not None and decode_values(existing)[1] != content_hash:
            raise Revert("AlreadyAnnounced", "content hash is fixed per item")
        ctx.set(key, encode_values([uri, content_hash, producer_sig, description]))

    def verify(self, ctx, args):
        """(item_id, data) -> b"\\x01" iff digest(data) matches the record."""
        item_id = want_bytes(args, 0, "item id")
        data = want_bytes(args, 1, "data")
        stored = decode_values(ctx.require(ITEM_PREFIX + item_id, "UnknownItem"))[1]
        return b"\x01" if digest(data) == stored else b"\x00"

    def describe(self, ctx, args):
        return ctx.require(ITEM_PREFIX + want_bytes(args, 0, "item id"), "UnknownItem")
