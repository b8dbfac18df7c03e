"""Escrow contract: tokens committed by a customer are held until the customer
confirms delivery (pay the provider) or the deadline passes (refund).

Each deal settles exactly once; the contract protects customers from the
owner as much as from providers, since nobody can alter the rules after
deployment.

State layout:
    dealseq             next deal id (u64)
    deal/<id>           encoded [customer, provider, amount, deadline, state]
"""

from __future__ import annotations

from ..codec import decode_values, enc_u64, encode_values
from ..runtime import Behavior, Export, Revert, account, u64

DEAL_SEQ_KEY = b"dealseq"
DEAL_PREFIX = b"deal/"

COMMITTED = "committed"
RELEASED = "released"
REFUNDED = "refunded"


def decode_deal(raw: bytes) -> tuple[bytes, bytes, int, int, str]:
    customer, provider, amount, deadline, state = decode_values(raw)
    return customer, provider, amount, deadline, state


class EscrowContract(Behavior):
    code_id = "escrow"
    exports = {"commit": Export(account, u64), "confirm": Export(u64), "refund": Export(u64)}

    def _deal(self, ctx, deal_id: int):
        return decode_deal(ctx.require(DEAL_PREFIX + enc_u64(deal_id), "UnknownDeal",
                                       str(deal_id)))

    def commit(self, ctx, provider, deadline):
        """Escrow the attached tokens until the deadline height."""
        return enc_u64(ctx.append(DEAL_SEQ_KEY, DEAL_PREFIX, encode_values(
            [ctx.caller, provider, ctx.tokens, deadline, COMMITTED])))

    def confirm(self, ctx, deal_id):
        """Customer releases the funds to the provider."""
        customer, provider, amount, deadline, state = self._deal(ctx, deal_id)
        if ctx.caller != customer:
            raise Revert("NotCustomer")
        if state != COMMITTED:
            raise Revert("AlreadySettled", state)
        ctx.set(DEAL_PREFIX + enc_u64(deal_id),
                encode_values([customer, provider, amount, deadline, RELEASED]))
        ctx.transfer_out(provider, amount)

    def refund(self, ctx, deal_id):
        """Customer reclaims the funds once the deadline has passed."""
        customer, provider, amount, deadline, state = self._deal(ctx, deal_id)
        if ctx.caller != customer:
            raise Revert("NotCustomer")
        if state != COMMITTED:
            raise Revert("AlreadySettled", state)
        if ctx.height <= deadline:
            raise Revert("TooEarly", f"deadline is height {deadline}")
        ctx.set(DEAL_PREFIX + enc_u64(deal_id),
                encode_values([customer, provider, amount, deadline, REFUNDED]))
        ctx.transfer_out(customer, amount)
