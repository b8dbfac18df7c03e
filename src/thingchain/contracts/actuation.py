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
from ..runtime import Behavior, Export, Members, account, bytes_, only_owner, str_

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
    actors = Members(ACTOR_PREFIX, "UnknownActor")
    exports = {
        "request": Export(str_, bytes_),
        "allow_actor": Export(account, guard=only_owner),
        "revoke_actor": Export(account, guard=only_owner),
    }
    allow_actor = actors.allow
    revoke_actor = actors.revoke

    def request(self, ctx, action, payload):
        """Emit Actuate when authorized, log either way."""
        allowed = self.actors.contains(ctx, ctx.caller)
        ctx.append(LOG_SEQ_KEY, LOG_PREFIX, encode_values(
            [ctx.height, ctx.caller, action, GRANTED if allowed else DENIED]))
        body = encode_values([action, payload, ctx.caller])
        if allowed:
            ctx.emit("Actuate", body)
            return encode_values([GRANTED])
        ctx.emit("Denied", body)
        return encode_values([DENIED, "NotAuthorized"])
