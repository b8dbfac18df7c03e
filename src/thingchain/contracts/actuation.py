"""Actuation contract: authorized callers raise Actuate events that Things
watch for; every decision, granted or denied, is appended to an on-chain log.

A denied request still commits (that is what makes the denial auditable), so
it reports the refusal in its return value rather than reverting.

State layout:
    actor/<account>     authorized-actor membership (owner implicit)
    logseq              next decision-log index (u64)
    log/<index>         encoded [height, caller, action, decision]
"""

from __future__ import annotations

from ..codec import encode_values
from ..runtime import Behavior, Members, want_bytes, want_str

ACTOR_PREFIX = b"actor/"
LOG_SEQ_KEY = b"logseq"
LOG_PREFIX = b"log/"

GRANTED = "granted"
DENIED = "denied"


def request_outcome(return_value: bytes) -> str:
    """Decode a request() return into "granted" or "denied"."""
    from ..codec import decode_values

    return decode_values(return_value)[0]


class ActuationContract(Behavior):
    code_id = "actuation"
    exports = ("request", "allow_actor", "revoke_actor")

    actors = Members(ACTOR_PREFIX, "UnknownActor")
    allow_actor = actors.allow
    revoke_actor = actors.revoke

    def request(self, ctx, args):
        """(action, args): emit Actuate when authorized, log either way."""
        action = want_str(args, 0, "action")
        payload = want_bytes(args, 1, "action args")
        allowed = self.actors.contains(ctx, ctx.caller)
        ctx.append(LOG_SEQ_KEY, LOG_PREFIX, encode_values(
            [ctx.height, ctx.caller, action, GRANTED if allowed else DENIED]))
        body = encode_values([action, payload, ctx.caller])
        if allowed:
            ctx.emit("Actuate", body)
            return encode_values([GRANTED])
        ctx.emit("Denied", body)
        return encode_values([DENIED, "NotAuthorized"])
