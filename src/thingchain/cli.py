"""Command-line driver.

The --chain file is the node's whole persistent state: mutating commands load
it, replay to live state, apply the operation, seal and rewrite the file.
Seeds passed on the command line are simulator conveniences, not production
key management.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from .chain import load_chain
from .codec import decode_values, encode_values
from .errors import ParseError, ResolutionError, ThingChainError
from .gateway.service import Gateway, GatewayConfig, UdpTransport
from .keys import Signer
from .ledger import Node, replay
from .resolver import audit_trail, resolve
from .scenario import parse_value, run_scenario


def _parse_args_spec(spec: str) -> bytes:
    if not spec:
        return b""
    return encode_values([parse_value(tok) for tok in spec.split(",")])


def _load_node(path) -> Node:
    with open(path, "rb") as fh:
        config, blocks = load_chain(fh.read())
    return Node.from_chain(config, blocks)


def _print_receipt(receipt) -> None:
    if receipt.ok:
        print(f"status: ok  return: {receipt.return_value.hex() or '-'}")
    else:
        print(f"status: reverted  reason: {receipt.reason}")
    for event in receipt.events:
        print(f"event: {event.name} source={event.source.hex()[:16]} "
              f"at {event.height}/{event.tx_index} payload={event.payload.hex()}")


def _record_str(record) -> str:
    fields = []
    if record is None:
        return "(none)"
    if record.delegation is not None:
        fields.append(f"delegation={record.delegation.hex()}")
    if record.service_key is not None:
        fields.append(f"service_key={record.service_key.hex()}")
    if record.uri is not None:
        fields.append(f"uri={record.uri}")
    if record.text is not None:
        fields.append(f"text={record.text.hex()}")
    return " ".join(fields) if fields else "(empty)"


def cmd_init(args) -> int:
    alloc = {}
    if args.genesis:
        for part in args.genesis.split(","):
            seed, eq, amount = part.partition("=")
            if not eq:
                raise ValueError(f"--genesis wants seed=tokens, got {part!r}")
            alloc[Signer.from_seed(seed).account] = int(amount)
    node = Node(alloc, tx_cap=args.tx_cap)
    node.export_chain(args.chain)
    print(f"chain initialized at {args.chain}")
    print(f"state digest: {node.state_digest().hex()}")
    return 0


def cmd_deploy(args) -> int:
    node = _load_node(args.chain)
    _, signer = node.create_account(args.owner_seed)
    receipt, address = node.deploy(signer, args.code, _parse_args_spec(args.init),
                                   tokens=args.tokens)
    node.seal_block()
    node.export_chain(args.chain)
    _print_receipt(receipt)
    if address is not None:
        print(f"address: {address.hex()}")
        return 0
    return 1


def cmd_call(args) -> int:
    node = _load_node(args.chain)
    _, signer = node.create_account(args.caller_seed)
    receipt = node.call(signer, bytes.fromhex(args.target), args.method,
                        _parse_args_spec(args.args), tokens=args.tokens)
    node.seal_block()
    node.export_chain(args.chain)
    _print_receipt(receipt)
    return 0 if receipt.ok else 1


def cmd_read(args) -> int:
    node = _load_node(args.chain)
    key = parse_value(args.key)
    key = key.encode() if isinstance(key, str) else key
    value = node.read_state(bytes.fromhex(args.target), key)
    if value is None:
        print("(absent)")
        return 1
    print(value.hex())
    try:
        print(f"decoded: {decode_values(value)}")
    except Exception:
        pass
    return 0


def cmd_history(args) -> int:
    node = _load_node(args.chain)
    key = parse_value(args.key)
    key = key.encode() if isinstance(key, str) else key
    for height, value in node.history(bytes.fromhex(args.target), key):
        rendered = value.hex() if value is not None else "(deleted)"
        print(f"{height}\t{rendered}")
    return 0


def _parse_roots(spec: str) -> list[bytes]:
    return [bytes.fromhex(part) for part in spec.split(",") if part]


def cmd_resolve(args) -> int:
    node = _load_node(args.chain)
    result = resolve(node, args.name, _parse_roots(args.root))
    print(f"record: {_record_str(result.record)}")
    print("path:")
    for zone, label in result.path:
        print(f"  {zone.hex()}  {label}")
    print(f"depth: {result.depth}")
    return 0


def cmd_audit(args) -> int:
    node = _load_node(args.chain)
    for entry in audit_trail(node, args.name, _parse_roots(args.root)):
        print(f"height {entry.height}  zone {entry.zone.hex()[:16]}  "
              f"label {entry.label}: {_record_str(entry.old)} -> {_record_str(entry.new)}")
    return 0


def cmd_kill(args) -> int:
    node = _load_node(args.chain)
    _, signer = node.create_account(args.caller_seed)
    receipt = node.call(signer, bytes.fromhex(args.target), "kill")
    node.seal_block()
    node.export_chain(args.chain)
    _print_receipt(receipt)
    return 0 if receipt.ok else 1


def cmd_export_chain(args) -> int:
    node = _load_node(args.chain)
    data = node.export_bytes()
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"exported {len(data)} bytes to {args.out}")
    print(f"height: {node.height}")
    print(f"state digest: {node.state_digest().hex()}")
    return 0


def cmd_replay(args) -> int:
    digest = replay(args.chain_file)
    print(f"state digest: {digest.hex()}")
    return 0


def cmd_run(args) -> int:
    report = run_scenario(args.script, seed=args.seed, export_path=args.export)
    print(report.to_json() if args.json else report.to_text())
    return report.exit_code


def build_gateway(config_path, listen: str = "", seed: str = "",
                  chain_export: str = "") -> Gateway:
    """Assemble a gateway from a config file plus flag overrides."""
    config = GatewayConfig.from_file(config_path)
    if listen:
        config.listen = listen
    if seed:
        config.master_seed = seed
    node = None
    if chain_export:
        try:
            node = _load_node(chain_export)
        except FileNotFoundError:
            node = None
    if node is None:
        node = Node({Signer.from_seed(s).account: n for s, n in config.genesis.items()})
    return Gateway(node, config, transport=UdpTransport())


def cmd_gateway(args) -> int:
    gateway = build_gateway(args.config, args.listen, args.seed, args.chain_export)
    stop = threading.Event()
    # a plain handler (not KeyboardInterrupt) so shutdown export can't be
    # interrupted mid-write by signal delivery timing
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    print(f"gateway listening on {gateway.address} (ctrl-c to stop)")
    try:
        gateway.serve(stop)
    finally:
        if args.chain_export:
            gateway.node.export_chain(args.chain_export)
        gateway.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thingchain",
        description="Deterministic permissioned-ledger simulator for IoT contract patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a fresh chain file")
    p.add_argument("--chain", required=True)
    p.add_argument("--genesis", default="", help="seed=tokens[,seed=tokens...]")
    p.add_argument("--tx-cap", type=int, default=1024)
    p.set_defaults(fn=cmd_init)

    p = sub.add_parser("deploy", help="deploy a contract")
    p.add_argument("--chain", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--owner-seed", required=True)
    p.add_argument("--init", default="", help="typed init args, comma separated")
    p.add_argument("--tokens", type=int, default=0)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("call", help="call a contract method")
    p.add_argument("--chain", required=True)
    p.add_argument("--target", required=True, help="contract address, hex")
    p.add_argument("--method", required=True)
    p.add_argument("--caller-seed", required=True)
    p.add_argument("--args", default="", help="typed args, comma separated")
    p.add_argument("--tokens", type=int, default=0)
    p.set_defaults(fn=cmd_call)

    p = sub.add_parser("read", help="read one contract state key")
    p.add_argument("--chain", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--key", required=True, help="typed key, e.g. str:last")
    p.set_defaults(fn=cmd_read)

    p = sub.add_parser("history", help="all committed writes to a key")
    p.add_argument("--chain", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--key", required=True)
    p.set_defaults(fn=cmd_history)

    p = sub.add_parser("resolve", help="resolve a dotted name from a root zone")
    p.add_argument("name")
    p.add_argument("--chain", required=True)
    p.add_argument("--root", required=True, help="root zone address(es), hex, comma separated, tried in order")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("audit", help="change history along a name's path")
    p.add_argument("name")
    p.add_argument("--chain", required=True)
    p.add_argument("--root", required=True)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("kill", help="invoke a contract's kill switch")
    p.add_argument("--chain", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--caller-seed", required=True)
    p.set_defaults(fn=cmd_kill)

    p = sub.add_parser("export-chain", help="re-export the chain and print its digest")
    p.add_argument("--chain", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_export_chain)

    p = sub.add_parser("replay", help="replay an exported chain, print the digest")
    p.add_argument("chain_file")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("run", help="run a scenario script")
    p.add_argument("script")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--export", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gateway", help="serve the datagram gateway over UDP")
    p.add_argument("--config", required=True)
    p.add_argument("--listen", default="")
    p.add_argument("--chain-export", default="")
    p.add_argument("--seed", default="")
    p.set_defaults(fn=cmd_gateway)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ThingChainError, ResolutionError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
