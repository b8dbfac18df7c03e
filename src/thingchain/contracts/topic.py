"""Pub-sub topic contract with hierarchical patterns and wildcards.

Patterns use "/"-separated labels, "+" for exactly one level and a terminal
"#" for this level and everything below (so "building/#" also matches
"building").  Publishing emits one Notify event per matching subscription;
delivery to off-chain sinks is the gateway's job.

State layout:
    pub/<account>       publisher-set membership (owner implicit)
    subseq              next subscription id (u64)
    sub/<id>            encoded [pattern, sink_kind, sink, subscriber account]
"""

from __future__ import annotations

from ..codec import decode_values, enc_u64, encode_values
from ..runtime import (Behavior, Export, Members, NOT_AUTHORIZED, Revert, account, bytes_, i64,
                       only_owner, str_, u64)

PUBLISHER_PREFIX = b"pub/"
SUB_SEQ_KEY = b"subseq"
SUB_PREFIX = b"sub/"

SINK_ADDRESS = 0   # sink bytes are an on-chain address
SINK_URI = 1       # sink bytes are an off-chain URI, opaque to the chain

SINGLE_WILDCARD = "+"
MULTI_WILDCARD = "#"


def split_topic(path: str) -> list[str]:
    segments = path.split("/")
    if any(not seg for seg in segments):
        raise ValueError(f"empty topic segment in {path!r}")
    return segments


def validate_pattern(pattern: str) -> list[str]:
    """Check wildcard placement; returns the segment list."""
    segments = split_topic(pattern)
    for i, seg in enumerate(segments):
        if seg == MULTI_WILDCARD and i != len(segments) - 1:
            raise ValueError("multi-level wildcard must be the last segment")
    return segments


def validate_topic_path(path: str) -> list[str]:
    segments = split_topic(path)
    if any(seg in (SINGLE_WILDCARD, MULTI_WILDCARD) for seg in segments):
        raise ValueError("publish paths cannot contain wildcards")
    return segments


def topic_matches(pattern: str, path: str) -> bool:
    """Iterative matcher for validated patterns against concrete paths."""
    pat = pattern.split("/")
    top = path.split("/")
    i = 0
    while i < len(pat):
        seg = pat[i]
        if seg == MULTI_WILDCARD:
            return True          # matches the remaining levels, even zero
        if i >= len(top):
            return False
        if seg != SINGLE_WILDCARD and seg != top[i]:
            return False
        i += 1
    return len(top) == len(pat)


class TopicContract(Behavior):
    code_id = "topic"
    publishers = Members(PUBLISHER_PREFIX, "UnknownPublisher")
    exports = {
        "subscribe": Export(str_, i64, bytes_),
        "unsubscribe": Export(u64),
        "publish": Export(str_, bytes_, guard=publishers),
        "allow_publisher": Export(account, guard=only_owner),
        "revoke_publisher": Export(account, guard=only_owner),
    }
    allow_publisher = publishers.allow
    revoke_publisher = publishers.revoke

    def subscribe(self, ctx, pattern, sink_kind, sink):
        """-> subscription id (u64 bytes)."""
        try:
            validate_pattern(pattern)
        except ValueError as exc:
            raise Revert("BadPattern", str(exc)) from exc
        if sink_kind not in (SINK_ADDRESS, SINK_URI):
            raise Revert("BadArgs", f"unknown sink kind {sink_kind}")
        return enc_u64(ctx.append(SUB_SEQ_KEY, SUB_PREFIX,
                                  encode_values([pattern, sink_kind, sink, ctx.caller])))

    def unsubscribe(self, ctx, sub_id):
        key = SUB_PREFIX + enc_u64(sub_id)
        if decode_values(ctx.require(key, "UnknownSub"))[3] != ctx.caller:
            raise Revert(NOT_AUTHORIZED, "only the subscriber can unsubscribe")
        ctx.delete(key)

    def publish(self, ctx, path, payload):
        """Notify every subscription whose pattern matches path."""
        try:
            validate_topic_path(path)
        except ValueError as exc:
            raise Revert("BadArgs", str(exc)) from exc
        notified = 0
        for key in ctx.keys(SUB_PREFIX):
            pattern, sink_kind, sink, subscriber = decode_values(ctx.get(key))
            if topic_matches(pattern, path):
                sub_id = int.from_bytes(key[len(SUB_PREFIX):], "big")
                ctx.emit("Notify",
                         encode_values([sub_id, sink_kind, sink, path, payload]))
                notified += 1
        return enc_u64(notified)
