"""Command-line interface.

Exit codes: 0 success / all signatures valid, 1 cryptographic
rejection, 2 operational error (bad arguments, I/O, framing).  The
``HASES_BACKEND`` environment variable (``production`` or ``tiny``)
selects the group backend at key generation; every file records the
backend it was created with.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import closing
from pathlib import Path

from . import cco, keyfiles, la, pq, schemes, stream
from .errors import BadSignatureFile, HasesError
from .group import production_group, small_test_group

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

_HEX_ID = re.compile(r"^[0-9a-fA-F]{32}$")


def parse_signer_id(text: str) -> bytes:
    """16-byte id: 32 hex chars, or short text padded with NUL bytes."""
    text = text.strip()
    if _HEX_ID.match(text):
        return bytes.fromhex(text)
    raw = text.encode("utf-8")
    if not raw or len(raw) > 16:
        raise ValueError(f"id {text!r} must be 32 hex chars or at most 16 bytes of text")
    return raw.ljust(16, b"\x00")


def read_ids_file(path: str) -> list[bytes]:
    ids = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            ids.append(parse_signer_id(line))
    if not ids:
        raise ValueError(f"no ids found in {path}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate ids in input file")
    return ids


def backend_group():
    name = os.environ.get("HASES_BACKEND", "production")
    if name == "production":
        return production_group()
    if name == "tiny":
        return small_test_group()
    raise ValueError(f"HASES_BACKEND must be 'production' or 'tiny', not {name!r}")


# --- keygen -----------------------------------------------------------------


def cmd_keygen(args) -> int:
    ids = read_ids_file(args.ids)
    out = Path(args.out)
    scheme = schemes.BY_NAME[args.scheme]
    pq_params = la_params = None
    if scheme.has_la:
        if not args.L:
            raise ValueError(f"--L is required for --scheme {args.scheme}")
        la_params = la.LaParams(backend_group(), args.J, args.L)
    if scheme.has_pq:
        j1 = args.J1 or 1
        if args.J % j1:
            raise ValueError(f"--J1 {j1} does not divide --J {args.J}")
        pq_params = pq.PqParams(t=args.t, k=args.k, j1=j1, j2=args.J // j1)
    states, public, material = scheme.keygen(ids, pq_params, la_params)
    bundle = keyfiles.VerifierBundle(scheme.tag, pq_params, la_params, public)

    secret_files = {out / f"signer_{sid.hex()}.key": keyfiles.signer_key_bytes(state)
                    for sid, state in states.items()}
    secret_files[out / "cco.store"] = keyfiles.store_bytes(cco.CcoStore(material))
    public_files = {out / "verifier.pub": bundle.to_bytes()}
    if scheme.has_la:
        # each key was computed just now, so its table needs no subgroup check
        tables = {sid: la_params.group.key_table(key) for sid, key in public.items()}
        public_files[keyfiles.tables_path(out / "verifier.pub")] = keyfiles.key_tables_bytes(
            bundle, tables)

    # everything validated; only now touch the filesystem
    out.mkdir(parents=True, exist_ok=True)
    for path, blob in secret_files.items():
        keyfiles.write_secret(path, blob)
    for path, blob in public_files.items():
        path.write_bytes(blob)
    print(f"wrote {len(secret_files) + len(public_files)} files to {out}")
    return EXIT_OK


def cmd_tables(args) -> int:
    bundle = keyfiles.load_verifier_bundle(args.pub)
    if not bundle.la_params:
        raise ValueError(f"{args.pub} holds no aggregate keys to build tables for")
    tables = {}
    for signer_id, key in bundle.public_keys.items():
        try:
            tables[signer_id] = bundle.la_params.group.precompute(key)
        except ValueError as exc:
            raise ValueError(f"{args.pub}: the key of signer {signer_id.hex()}: {exc}") from exc
    path = keyfiles.tables_path(args.pub)
    path.write_bytes(keyfiles.key_tables_bytes(bundle, tables))
    print(f"wrote {len(tables)} key tables to {path}")
    return EXIT_OK


# --- sign ------------------------------------------------------------------


def cmd_sign(args) -> int:
    # locked from load to save: a second signer of this key would sign
    # again at the epochs this one burns
    with keyfiles.signer_key_lock(args.key):
        state = keyfiles.load_signer_key(args.key)
        records = stream.read_stream(args.input, args.format, args.hex)
        blobs = schemes.of(state).sign(state, records)
        # an --out that cannot be written fails here, before the evolved
        # key burns its epochs ("ab" writes nothing and keeps what is
        # there, so --in may be --out); the key is saved before the
        # signatures: a failure in between loses tags, never reuses an epoch
        open(args.out, "ab").close()
        keyfiles.save_signer_key(args.key, state)
    keyfiles.save_signatures(args.out, blobs)
    print(f"signed {len(records)} records into {len(blobs)} signatures")
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _parse_host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, _unsigned(port, 16, "port")


def _unsigned(value, bits: int, what: str) -> int:
    """``value`` as an integer that fits ``bits`` unsigned bits, as a port
    or an epoch does on the wire; ValueError, naming ``what``, if it does not."""
    number = int(value)
    if not 0 <= number < 1 << bits:
        raise ValueError(f"{what} {number} is outside 0..{(1 << bits) - 1}")
    return number


def cmd_verify(args) -> int:
    from . import verifier  # no other command loads it

    bundle = keyfiles.load_verifier_bundle(args.pub)
    address = _parse_host_port(args.cco) if args.cco else None
    # the service is reached, or the export read, before any input is
    source = verifier.CommitmentSource(bundle, address, args.commits)
    try:
        tables_file = keyfiles.tables_path(args.pub)
        if not (bundle.la_params and tables_file.exists()):
            tables_file = None  # each key is checked and its table built in this run
        with closing(stream.iter_stream(args.input, args.format, args.hex)) as records:
            blobs = keyfiles.iter_signatures(args.sigs)
            results = verifier.verify_all(bundle, records, blobs, source, tables_file)
    except BadSignatureFile as exc:
        # a mangled signature container is a cryptographic reject, not an
        # operational failure: the data offered for verification is bad
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECT
    finally:
        source.close()
    good = sum(results)
    print(f"{good}/{len(results)} signatures valid")
    return EXIT_OK if results and all(results) else EXIT_REJECT


# --- serve / request ----------------------------------------------------------


def cmd_serve(args) -> int:
    port = _unsigned(args.port, 16, "--port")
    store = keyfiles.load_store(args.store)
    import signal

    from .transport import CcoServer, can_split_builds  # keygen and sign never load sockets

    server = CcoServer(store, args.host, port)
    print(f"listening on {args.host}:{server.port}", flush=True)
    # forked after the line, so the start is not slowed by copy-on-write
    # faults, and before the loop starts
    if can_split_builds():
        server.start_hash_helper()
    # SIGTERM and Ctrl-C stop the loop after its turn: sockets closed, helper reaped, exit 0
    previous = {signum: signal.signal(signum, lambda *_: server.stop())
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return EXIT_OK


def cmd_request(args) -> int:
    from .transport import CcoClient

    host, port = _parse_host_port(args.cco)
    scheme = schemes.BY_NAME[args.scheme]
    signer_id = parse_signer_id(args.id)
    if args.export:
        lo, _, hi = args.export.partition(":")
        span = _unsigned(lo, 64, "--export"), _unsigned(hi, 64, "--export")
    elif args.epoch is None:
        raise ValueError("--epoch or --export is required")
    else:
        epoch = _unsigned(args.epoch, 64, "--epoch")
    with CcoClient(host, port) as client:
        if args.export:
            blobs = client.batch_export(scheme.tag, signer_id, *span)
            keyfiles.save_commitments(args.out, blobs)
            print(f"exported {len(blobs)} commitments to {args.out}")
            return EXIT_OK
        # a non-OK status raises CcoRequestError: exit 2
        blob = client.commitment_bytes(scheme.tag, signer_id, epoch)
        if args.out:
            keyfiles.save_commitments(args.out, [blob])
            print(f"wrote commitment ({len(blob)} bytes) to {args.out}")
        else:
            print(blob.hex())
    return EXIT_OK


# --- bench ---------------------------------------------------------------------


def cmd_bench(args) -> int:
    from . import bench  # no other command loads it
    if args.scheme == "pq":
        params = pq.PqParams(t=args.t, k=args.k, j1=args.J1 or 1, j2=args.J2 or 64)
        report = bench.bench_pq(params, args.trials)
    elif args.scheme == "la":
        report = bench.bench_la(
            backend_group(), max_batches=max(args.trials, 64), batch_size=args.L or 8,
            trials=args.trials,
        )
    else:
        params = pq.PqParams(t=args.t, k=args.k, j1=args.J1 or 1, j2=args.J2 or 64)
        report = bench.bench_hy(params, backend_group(), args.L or 8, args.trials)
    print(report.table())
    print()
    for line in report.machine_lines():
        print(line)
    return EXIT_OK


# --- parser -------------------------------------------------------------


def _keygen_parser(sub) -> None:
    kg = sub.add_parser("keygen", help="run a key ceremony")
    kg.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    kg.add_argument("--ids", required=True, help="file with one signer id per line")
    kg.add_argument("--J", type=int, required=True, help="total signing epochs/batches")
    kg.add_argument("--J1", type=int, default=0, help="precomputed anchor segments (pq/hy)")
    kg.add_argument("--L", type=int, default=0, help="batch size (la/hy)")
    kg.add_argument("--t", type=int, default=1024)
    kg.add_argument("--k", type=int, default=16)
    kg.add_argument("--out", required=True, help="output directory")
    kg.set_defaults(func=cmd_keygen)


def _sign_parser(sub) -> None:
    sg = sub.add_parser("sign", help="sign a message stream")
    sg.add_argument("--key", required=True, help="signer key file (rewritten after use)")
    sg.add_argument("--in", dest="input", required=True)
    sg.add_argument("--format", choices=("csv", "bin"), default="csv")
    sg.add_argument("--hex", action="store_true", help="CSV payloads are hex-encoded")
    sg.add_argument("--out", required=True, help="signature file")
    sg.set_defaults(func=cmd_sign)


def _verify_parser(sub) -> None:
    vf = sub.add_parser("verify", help="verify a signed message stream")
    vf.add_argument("--pub", required=True, help="verifier bundle from keygen")
    vf.add_argument("--in", dest="input", required=True)
    vf.add_argument("--format", choices=("csv", "bin"), default="csv")
    vf.add_argument("--hex", action="store_true")
    vf.add_argument("--sigs", required=True)
    # exactly one commitment source: argparse exits 2 on none or both
    source = vf.add_mutually_exclusive_group(required=True)
    source.add_argument("--cco", help="HOST:PORT of a live commitment service")
    source.add_argument("--commits", help="offline commitment export file")
    vf.set_defaults(func=cmd_verify)


def _tables_parser(sub) -> None:
    tb = sub.add_parser("tables", help="rebuild the key table file of a verifier bundle")
    tb.add_argument("--pub", required=True,
                    help="la or hy verifier bundle; writes <PUB>.tables beside it")
    tb.set_defaults(func=cmd_tables)


def _serve_parser(sub) -> None:
    sv = sub.add_parser("serve", help="serve a provisioned key store")
    sv.add_argument("--store", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0)
    sv.set_defaults(func=cmd_serve)


def _request_parser(sub) -> None:
    rq = sub.add_parser("request", help="fetch commitments from a service")
    rq.add_argument("--cco", required=True, help="HOST:PORT")
    rq.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    rq.add_argument("--id", required=True)
    rq.add_argument("--epoch", type=int)
    rq.add_argument("--export", help="epoch range FROM:TO for offline export")
    rq.add_argument("--out", help="write commitment(s) to this file")
    rq.set_defaults(func=cmd_request)


def _bench_parser(sub) -> None:
    bn = sub.add_parser("bench", help="measure signer costs and sizes")
    bn.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    bn.add_argument("--trials", type=int, default=32)
    bn.add_argument("--t", type=int, default=1024)
    bn.add_argument("--k", type=int, default=16)
    bn.add_argument("--J1", type=int, default=0)
    bn.add_argument("--J2", type=int, default=0)
    bn.add_argument("--L", type=int, default=0)
    bn.set_defaults(func=cmd_bench)


# each command's parser builder, in the order ``hases --help`` lists them;
# a builder takes ``cmd_*`` from the module when it runs, so a wrapper
# installed on one later (as a tracer does) is the one that is called
_SUBPARSERS = {
    "keygen": _keygen_parser,
    "sign": _sign_parser,
    "verify": _verify_parser,
    "tables": _tables_parser,
    "serve": _serve_parser,
    "request": _request_parser,
    "bench": _bench_parser,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``hases`` parser with every subcommand, or with ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="hases",
        description="forward-secure, aggregate, and hybrid signing with an "
        "oracle-served commitment service",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _SUBPARSERS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known command is parsed by a parser that holds it alone; anything
    # else (no command, an unknown one, a top-level option) gets the whole
    # parser, for its help and its error messages
    command = argv[0] if argv and argv[0] in _SUBPARSERS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (HasesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
