"""Access-token contract: the owner issues scoped, expiring tokens; anyone can
ask the contract to check one, and every check lands in an on-chain log.

State layout:
    token/<id>          encoded [holder, scope, expiry height]
    checkseq            next check-log index (u64)
    check/<index>       encoded [height, caller, token id, holder, scope, result]
"""

from __future__ import annotations

from ..codec import decode_values, encode_values
from ..runtime import Behavior, Export, account, bytes_, i64, only_owner, str_

TOKEN_PREFIX = b"token/"
CHECK_SEQ_KEY = b"checkseq"
CHECK_PREFIX = b"check/"


class AccessContract(Behavior):
    code_id = "access"
    exports = {
        "issue": Export(bytes_, account, str_, i64, guard=only_owner),
        "check": Export(bytes_, account, str_),
        "revoke": Export(bytes_, guard=only_owner),
    }

    def issue(self, ctx, token_id, holder, scope, expiry):
        ctx.set(TOKEN_PREFIX + token_id, encode_values([holder, scope, expiry]))

    def revoke(self, ctx, token_id):
        ctx.remove(TOKEN_PREFIX + token_id, "UnknownToken")

    def check(self, ctx, token_id, holder, scope):
        """-> b"\\x01"/b"\\x00"; the check is logged."""
        raw = ctx.get(TOKEN_PREFIX + token_id)
        valid = False
        if raw is not None:
            t_holder, t_scope, t_expiry = decode_values(raw)
            valid = t_holder == holder and t_scope == scope and ctx.height <= t_expiry
        ctx.append(CHECK_SEQ_KEY, CHECK_PREFIX, encode_values(
            [ctx.height, ctx.caller, token_id, holder, scope, valid]))
        return b"\x01" if valid else b"\x00"
