"""Device description contracts.

DeviceStub is the interface a manufacturer publishes for a product line;
client tooling written against it keeps working with any deployment that
preserves its method names.  DeviceExtended is such an extension: an
integrator's deployment adding fields of its own (e.g. a CoAP URI) on top of
the stub's surface.
"""

from __future__ import annotations

from ..runtime import Behavior, want_str

DESCRIPTION_KEY = b"descr"
COAP_URI_KEY = b"coap_uri"


class DeviceStub(Behavior):
    code_id = "device_stub"
    exports = ("describe", "ping")

    def init(self, ctx, args):
        if args:
            ctx.set(DESCRIPTION_KEY, want_str(args, 0, "description").encode())

    def describe(self, ctx, args):
        return ctx.get(DESCRIPTION_KEY) or b""

    def ping(self, ctx, args):
        return b"pong"


class DeviceExtended(DeviceStub):
    code_id = "device_extended"
    exports = DeviceStub.exports + ("set_coap_uri", "coap_uri")

    def set_coap_uri(self, ctx, args):
        ctx.require_owner()
        ctx.set(COAP_URI_KEY, want_str(args, 0, "uri").encode())

    def coap_uri(self, ctx, args):
        return ctx.require(COAP_URI_KEY, "UnknownAttribute", "coap_uri")
