"""Identity contract: a key's attribute list, owner-writable, world-readable.

State layout:
    subject_key         verification-key bytes this identity describes
    attr/<kind>         attribute value (absent once revoked)
"""

from __future__ import annotations

from ..runtime import Behavior, Export, Revert, bytes_, only_owner, str_

SUBJECT_KEY = b"subject_key"
ATTR_PREFIX = b"attr/"


class IdentityContract(Behavior):
    code_id = "identity"
    exports = {
        "set_attribute": Export(str_, bytes_, guard=only_owner),
        "revoke": Export(str_, guard=only_owner),
        "get_attribute": Export(str_),
    }
    init_types = (bytes_,)

    def init(self, ctx, subject_key=None):
        if subject_key is not None:
            ctx.set(SUBJECT_KEY, subject_key)

    def set_attribute(self, ctx, kind, value):
        if not kind:
            raise Revert("BadArgs", "empty attribute kind")
        ctx.set(ATTR_PREFIX + kind.encode(), value)

    def revoke(self, ctx, kind):
        ctx.remove(ATTR_PREFIX + kind.encode(), "UnknownAttribute", kind)

    def get_attribute(self, ctx, kind):
        return ctx.require(ATTR_PREFIX + kind.encode(), "UnknownAttribute", kind)
