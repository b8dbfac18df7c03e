"""Device description contracts.

DeviceStub is the interface a manufacturer publishes for a product line;
client tooling written against it keeps working with any deployment that
preserves its method names.  DeviceExtended is such an extension: an
integrator's deployment adding fields of its own (e.g. a CoAP URI) on top of
the stub's surface.
"""

from __future__ import annotations

from ..runtime import Behavior, Export, only_owner, str_

DESCRIPTION_KEY = b"descr"
COAP_URI_KEY = b"coap_uri"


class DeviceStub(Behavior):
    code_id = "device_stub"
    exports = {"describe": Export(), "ping": Export()}
    init_types = (str_,)

    def init(self, ctx, description=None):
        if description is not None:
            ctx.set(DESCRIPTION_KEY, description.encode())

    def describe(self, ctx):
        return ctx.get(DESCRIPTION_KEY) or b""

    def ping(self, ctx):
        return b"pong"


class DeviceExtended(DeviceStub):
    code_id = "device_extended"
    exports = {**DeviceStub.exports, "set_coap_uri": Export(str_, guard=only_owner),
               "coap_uri": Export()}

    def set_coap_uri(self, ctx, uri):
        ctx.set(COAP_URI_KEY, uri.encode())

    def coap_uri(self, ctx):
        return ctx.require(COAP_URI_KEY, "UnknownAttribute", "coap_uri")
