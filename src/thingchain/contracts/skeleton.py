"""Skeleton contract: maps method names to implementation contract addresses.

Callers resolve a method with lookup() and then call the implementation
directly (a two-step call).  When an implementation needs fixing, the owner
deploys a replacement and swaps the pointer; every swap stays visible in the
ledger history of the method's key.

State layout:
    impl/<method>       implementation contract address
"""

from __future__ import annotations

from ..runtime import Behavior, Export, Revert, account, only_owner, str_

IMPL_PREFIX = b"impl/"


class SkeletonContract(Behavior):
    code_id = "skeleton"
    exports = {
        "lookup": Export(str_),
        "update": Export(str_, account, guard=only_owner),
        "remove": Export(str_, guard=only_owner),
    }

    def lookup(self, ctx, method):
        return ctx.require(IMPL_PREFIX + method.encode(), "MethodNotFound", method)

    def update(self, ctx, method, addr):
        if not method:
            raise Revert("BadArgs", "empty method name")
        ctx.set(IMPL_PREFIX + method.encode(), addr)

    def remove(self, ctx, method):
        ctx.remove(IMPL_PREFIX + method.encode(), "MethodNotFound", method)
