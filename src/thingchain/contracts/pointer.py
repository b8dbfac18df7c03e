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
from ..runtime import Behavior, Export, Revert, bytes_, only_owner, str_

ITEM_PREFIX = b"item/"


class PointerContract(Behavior):
    code_id = "pointer"
    exports = {
        "announce": Export(bytes_, str_, bytes_, bytes_, bytes_, guard=only_owner),
        "verify": Export(bytes_, bytes_),
        "describe": Export(bytes_),
    }

    def announce(self, ctx, item_id, uri, content_hash, producer_sig, description):
        if len(content_hash) != DIGEST_SIZE:
            raise Revert("BadArgs", f"content hash must be {DIGEST_SIZE} bytes")
        key = ITEM_PREFIX + item_id
        existing = ctx.get(key)
        if existing is not None and decode_values(existing)[1] != content_hash:
            raise Revert("AlreadyAnnounced", "content hash is fixed per item")
        ctx.set(key, encode_values([uri, content_hash, producer_sig, description]))

    def verify(self, ctx, item_id, data):
        """-> b"\\x01" iff digest(data) matches the record."""
        stored = decode_values(ctx.require(ITEM_PREFIX + item_id, "UnknownItem"))[1]
        return b"\x01" if digest(data) == stored else b"\x00"

    def describe(self, ctx, item_id):
        return ctx.require(ITEM_PREFIX + item_id, "UnknownItem")
