"""Skeleton contract: maps method names to implementation contract addresses.

Callers resolve a method with lookup() and then call the implementation
directly (a two-step call).  When an implementation needs fixing, the owner
deploys a replacement and swaps the pointer; every swap stays visible in the
ledger history of the method's key.

State layout:
    impl/<method>       implementation contract address
"""

from __future__ import annotations

from ..runtime import Behavior, Revert, want_account, want_str

IMPL_PREFIX = b"impl/"


class SkeletonContract(Behavior):
    code_id = "skeleton"
    exports = ("lookup", "update", "remove")

    def lookup(self, ctx, args):
        method = want_str(args, 0, "method name")
        return ctx.require(IMPL_PREFIX + method.encode(), "MethodNotFound", method)

    def update(self, ctx, args):
        """(method, implementation address); owner-only."""
        ctx.require_owner()
        method = want_str(args, 0, "method name")
        addr = want_account(args, 1, "implementation address")
        if not method:
            raise Revert("BadArgs", "empty method name")
        ctx.set(IMPL_PREFIX + method.encode(), addr)

    def remove(self, ctx, args):
        ctx.require_owner()
        method = want_str(args, 0, "method name")
        ctx.remove(IMPL_PREFIX + method.encode(), "MethodNotFound", method)
