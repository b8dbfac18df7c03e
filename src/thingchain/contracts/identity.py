"""Identity contract: a key's attribute list, owner-writable, world-readable.

State layout:
    subject_key         verification-key bytes this identity describes
    attr/<kind>         attribute value (absent once revoked)
"""

from __future__ import annotations

from ..runtime import Behavior, Revert, want_bytes, want_str

SUBJECT_KEY = b"subject_key"
ATTR_PREFIX = b"attr/"


class IdentityContract(Behavior):
    code_id = "identity"
    exports = ("set_attribute", "revoke", "get_attribute")

    def init(self, ctx, args):
        # optional arg 0: the subject verification key (defaults to none)
        if args:
            ctx.set(SUBJECT_KEY, want_bytes(args, 0, "subject key"))

    def set_attribute(self, ctx, args):
        ctx.require_owner()
        kind = want_str(args, 0, "attribute kind")
        value = want_bytes(args, 1, "attribute value")
        if not kind:
            raise Revert("BadArgs", "empty attribute kind")
        ctx.set(ATTR_PREFIX + kind.encode(), value)

    def revoke(self, ctx, args):
        ctx.require_owner()
        kind = want_str(args, 0, "attribute kind")
        ctx.remove(ATTR_PREFIX + kind.encode(), "UnknownAttribute", kind)

    def get_attribute(self, ctx, args):
        kind = want_str(args, 0, "attribute kind")
        return ctx.require(ATTR_PREFIX + kind.encode(), "UnknownAttribute", kind)
