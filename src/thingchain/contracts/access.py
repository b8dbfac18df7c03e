"""Access-token contract: the owner issues scoped, expiring tokens; anyone can
ask the contract to check one, and every check lands in an on-chain log.

State layout:
    token/<id>          encoded [holder, scope, expiry height]
    checkseq            next check-log index (u64)
    check/<index>       encoded [height, caller, token id, holder, scope, result]
"""

from __future__ import annotations

from ..codec import decode_values, encode_values
from ..runtime import Behavior, want_account, want_bytes, want_int, want_str

TOKEN_PREFIX = b"token/"
CHECK_SEQ_KEY = b"checkseq"
CHECK_PREFIX = b"check/"


class AccessContract(Behavior):
    code_id = "access"
    exports = ("issue", "check", "revoke")

    def issue(self, ctx, args):
        """(token_id, holder, scope, expiry_height); owner-only."""
        ctx.require_owner()
        token_id = want_bytes(args, 0, "token id")
        holder = want_account(args, 1, "holder")
        scope = want_str(args, 2, "scope")
        expiry = want_int(args, 3, "expiry height")
        ctx.set(TOKEN_PREFIX + token_id, encode_values([holder, scope, expiry]))

    def revoke(self, ctx, args):
        ctx.require_owner()
        ctx.remove(TOKEN_PREFIX + want_bytes(args, 0, "token id"), "UnknownToken")

    def check(self, ctx, args):
        """(token_id, holder, scope) -> b"\\x01"/b"\\x00"; the check is logged."""
        token_id = want_bytes(args, 0, "token id")
        holder = want_account(args, 1, "holder")
        scope = want_str(args, 2, "scope")
        raw = ctx.get(TOKEN_PREFIX + token_id)
        valid = False
        if raw is not None:
            t_holder, t_scope, t_expiry = decode_values(raw)
            valid = t_holder == holder and t_scope == scope and ctx.height <= t_expiry
        ctx.append(CHECK_SEQ_KEY, CHECK_PREFIX, encode_values(
            [ctx.height, ctx.caller, token_id, holder, scope, valid]))
        return b"\x01" if valid else b"\x00"
