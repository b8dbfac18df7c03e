"""World state with committed / pending-block / batch / pending-transaction
layers.

External reads (read_state, history, balances, the state digest) see only the
committed layer, i.e. state as of the last sealed block.  Execution reads go
through all layers so transactions in the same block observe earlier writes.
A reverted transaction simply drops its layer, and so does a batch whose
signatures do not all verify.

Contract storage is committed per contract: its base maps each address to
that contract's own ``{key: value}`` dict, while the block and transaction
overlays stay flat ``(address, key)`` dicts.  Listing one contract's keys
therefore touches only that contract's committed keys plus its entries in the
small overlays.

The state digest is incremental.  From its first call on, a ``WorldState``
keeps each contract's encoded digest section, and committed state marks a
contract stale at the only two places it changes: the contract map's commit
and the storage map's commit (tombstone deletes included).  A later digest
re-encodes only the stale sections and hashes every section in address
order, so it costs the contracts committed since the last digest plus one
hashing pass, and its value is the one a full re-encoding gives.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

from .codec import enc_str, enc_u8, enc_u32, enc_u64

_TOMBSTONE = object()
_U32 = struct.Struct(">I").pack


class LayeredMap:
    """A dict with up to three overlay layers: block, batch and transaction."""

    def __init__(self):
        self.base: dict = {}
        self.layers: list[dict] = []
        self.stale: set | None = None     # keys committed since the last digest, if tracked

    def push(self) -> None:
        self.layers.append({})

    def pop(self, merge: bool) -> None:
        top = self.layers.pop()
        if merge:
            if self.layers:
                self.layers[-1].update(top)
            else:
                self._commit(top)

    def get(self, key, default=None, committed_only: bool = False):
        if not committed_only:
            for layer in reversed(self.layers):
                if key in layer:
                    value = layer[key]
                    return default if value is _TOMBSTONE else value
        value = self._committed(key)
        return default if value is _TOMBSTONE else value

    def set(self, key, value) -> None:
        if self.layers:
            self.layers[-1][key] = value
        else:
            self._commit({key: value})

    def delete(self, key) -> None:
        self.set(key, _TOMBSTONE)

    def keys(self, committed_only: bool = False):
        """All live keys, merged across layers, in sorted order."""
        merged = dict(self.base)
        if not committed_only:
            for layer in self.layers:
                merged.update(layer)
        return sorted(k for k, v in merged.items() if v is not _TOMBSTONE)

    def _committed(self, key):
        return self.base.get(key, _TOMBSTONE)

    def _commit(self, layer: dict) -> None:
        self.base.update(layer)
        if self.stale is not None:
            self.stale.update(layer)


class StorageMap(LayeredMap):
    """Contract storage: overlays keyed by (address, key), and a committed
    base nested by address (address -> {key: value}) that holds no tombstones.
    Its stale set holds addresses.
    """

    def _committed(self, key):
        address, name = key
        return self.base.get(address, {}).get(name, _TOMBSTONE)

    def _commit(self, layer: dict) -> None:
        for (address, name), value in layer.items():
            if value is _TOMBSTONE:
                self.base.get(address, {}).pop(name, None)
            else:
                self.base.setdefault(address, {})[name] = value
        if self.stale is not None:
            self.stale.update(address for address, _ in layer)

    def contract_keys(self, address: bytes, prefix: bytes = b"",
                      committed_only: bool = False) -> list[bytes]:
        """One contract's live keys starting with prefix, in sorted order."""
        merged = dict(self.base.get(address, {}))
        if not committed_only:
            for layer in self.layers:
                merged.update((name, v) for (addr, name), v in layer.items() if addr == address)
        return sorted(k for k, v in merged.items() if v is not _TOMBSTONE and k.startswith(prefix))


@dataclass(frozen=True)
class ContractMeta:
    code_id: str
    owner: bytes
    balance: int = 0
    killed: bool = False


class WorldState:
    """Accounts, contract metadata and contract key-value storage."""

    def __init__(self):
        self.balances = LayeredMap()      # account/contract payee id -> int
        self.nonces = LayeredMap()        # account id -> int
        self.contracts = LayeredMap()     # address -> ContractMeta
        self.storage = StorageMap()       # address -> {key: bytes}
        # address -> encoded digest section; None in a committed view
        self._sections: dict[bytes, bytes] | None = {}

    def _maps(self):
        return (self.balances, self.nonces, self.contracts, self.storage)

    def push_layer(self) -> None:
        for m in self._maps():
            m.push()

    def pop_layer(self, merge: bool) -> None:
        for m in self._maps():
            m.pop(merge)

    def committed_view(self) -> "WorldState":
        """A layer-free view sharing the committed base maps.

        Used for read-only calls; writers must never touch a view (the static
        execution guards enforce this before any mutation path is reached).
        A view caches no digest sections: its owner's later commits mark only
        the owner's sections stale.
        """
        view = WorldState()
        for mine, theirs in zip(view._maps(), self._maps()):
            mine.base = theirs.base
        view._sections = None
        return view

    # --- accounts ------------------------------------------------------

    def balance(self, account: bytes, committed_only: bool = False) -> int:
        return self.balances.get(account, 0, committed_only)

    def nonce(self, account: bytes, committed_only: bool = False) -> int:
        return self.nonces.get(account, 0, committed_only)

    def credit(self, account: bytes, amount: int) -> None:
        self.balances.set(account, self.balance(account) + amount)

    def debit(self, account: bytes, amount: int) -> None:
        remaining = self.balance(account) - amount
        if remaining < 0:
            raise ValueError("balance underflow")
        self.balances.set(account, remaining)

    # --- contracts -----------------------------------------------------

    def contract(self, address: bytes, committed_only: bool = False) -> ContractMeta | None:
        return self.contracts.get(address, None, committed_only)

    def set_contract(self, address: bytes, meta: ContractMeta) -> None:
        self.contracts.set(address, meta)

    def update_contract(self, address: bytes, **changes) -> ContractMeta:
        meta = replace(self.contracts.get(address), **changes)
        self.contracts.set(address, meta)
        return meta

    def get_storage(self, address: bytes, key: bytes, committed_only: bool = False) -> bytes | None:
        return self.storage.get((address, key), None, committed_only)

    def set_storage(self, address: bytes, key: bytes, value: bytes) -> None:
        self.storage.set((address, key), value)

    def delete_storage(self, address: bytes, key: bytes) -> None:
        self.storage.delete((address, key))

    def storage_keys(self, address: bytes, prefix: bytes = b"", committed_only: bool = False):
        return self.storage.contract_keys(address, prefix, committed_only)

    # --- digest --------------------------------------------------------

    def state_digest(self) -> bytes:
        """Canonical digest of committed world state.

        Accounts at (balance 0, nonce 0) are omitted so a replayed chain and a
        live node agree even when the live node knows extra never-used keys.
        The first call encodes every contract's section and keeps it; a later
        call re-encodes only the contracts committed since the call before, so
        its cost is those contracts plus one hashing pass over all sections.
        """
        contract_addrs = self.contracts.keys(committed_only=True)
        account_ids = set(self.balances.keys(committed_only=True))
        account_ids.update(self.nonces.keys(committed_only=True))
        account_ids.difference_update(contract_addrs)
        accounts = []
        for acct in sorted(account_ids):
            bal = self.balance(acct, committed_only=True)
            non = self.nonce(acct, committed_only=True)
            if bal or non:
                accounts.append(acct + enc_u64(bal) + enc_u64(non))

        h = hashlib.sha256(b"state:")
        h.update(enc_u32(len(accounts)))
        h.update(b"".join(accounts))
        h.update(enc_u32(len(contract_addrs)))
        sections = self._sections
        if sections is None:                   # a committed view: encode all, keep none
            sections = {}
        elif self.storage.stale is None:       # the first digest: track from now on
            self.contracts.stale = self.storage.stale = set()
        else:
            for addr in self.storage.stale:
                sections.pop(addr, None)
            self.storage.stale.clear()
        for addr in contract_addrs:
            section = sections.get(addr)
            if section is None:
                section = sections[addr] = self._section(addr)
            h.update(section)
        return h.digest()

    def _section(self, addr: bytes) -> bytes:
        """One contract's part of the digest: its metadata, then its committed
        key/value pairs in key order."""
        meta = self.contract(addr, committed_only=True)
        slots = self.storage.base.get(addr, {})
        parts = [addr, enc_str(meta.code_id), meta.owner, enc_u64(meta.balance),
                 enc_u8(1 if meta.killed else 0), enc_u32(len(slots))]
        for key in sorted(slots):
            value = slots[key]
            # enc_bytes(key) + enc_bytes(value), unrolled: this loop is most
            # of the first digest, which replay and every CLI command pay
            parts += (_U32(len(key)), key, _U32(len(value)), value)
        return b"".join(parts)

    def total_supply(self, committed_only: bool = False) -> int:
        """Sum of all account and contract balances (conservation check)."""
        total = sum(
            self.balances.get(k, 0, committed_only)
            for k in self.balances.keys(committed_only)
        )
        for addr in self.contracts.keys(committed_only):
            total += self.contract(addr, committed_only).balance
        return total
