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
from pathlib import Path
from typing import Iterator

from . import bench, cco, hy, keyfiles, la, pq, stream
from .errors import HasesError
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


def _pq_params_from_args(args) -> pq.PqParams:
    j1 = args.J1 or 1
    if args.J % j1:
        raise ValueError(f"--J1 {j1} does not divide --J {args.J}")
    return pq.PqParams(t=args.t, k=args.k, j1=j1, j2=args.J // j1)


# --- keygen -----------------------------------------------------------------


def cmd_keygen(args) -> int:
    ids = read_ids_file(args.ids)
    out = Path(args.out)
    files: dict[Path, bytes] = {}
    store = cco.CcoStore()

    if args.scheme == "pq":
        states, material = pq.keygen(ids, _pq_params_from_args(args))
        store.provision(material)
        bundle = keyfiles.VerifierBundle(
            keyfiles.SCHEME_PQ, material.params, None, {sid: None for sid in ids}
        )
    elif args.scheme == "la":
        if not args.L:
            raise ValueError("--L is required for the aggregate scheme")
        group = backend_group()
        states, public, material = la.keygen(ids, group, args.J, args.L)
        store.provision(material)
        bundle = keyfiles.VerifierBundle(keyfiles.SCHEME_LA, None, material.params, public)
    else:
        if not args.L:
            raise ValueError("--L is required for the hybrid scheme")
        group = backend_group()
        pq_params = _pq_params_from_args(args)
        states, public, material = hy.keygen(ids, group, args.L, pq_params)
        store.provision(material)
        bundle = keyfiles.VerifierBundle(
            keyfiles.SCHEME_HY, pq_params, material.la.params, public
        )

    for sid, state in states.items():
        files[out / f"signer_{sid.hex()}.key"] = keyfiles.signer_key_bytes(state)
    files[out / "cco.store"] = keyfiles.store_bytes(store)
    files[out / "verifier.pub"] = bundle.to_bytes()

    # everything validated; only now touch the filesystem
    out.mkdir(parents=True, exist_ok=True)
    for path, blob in files.items():
        path.write_bytes(blob)
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


# --- sign ------------------------------------------------------------------


def cmd_sign(args) -> int:
    state = keyfiles.load_signer_key(args.key)
    records = stream.read_stream(args.input, args.format, args.hex)
    blobs: list[bytes] = []
    if isinstance(state, pq.PqSignerState):
        for record in records:
            blobs.append(pq.sign(state, record.payload).to_bytes())
    elif isinstance(state, la.LaSignerState):
        for batch in stream.into_batches(records, state.params.batch_size):
            blobs.append(la.sign_batch(state, batch).to_bytes())
    else:
        for batch in stream.into_batches(records, state.la.params.batch_size):
            blobs.append(hy.sign_batch(state, batch).to_bytes())
    # persist the evolved key before the signatures: a failure in between
    # loses tags, never reuses a burned epoch
    keyfiles.save_signer_key(args.key, state)
    keyfiles.save_signatures(args.out, blobs)
    print(f"signed {len(records)} records into {len(blobs)} signatures")
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _parse_host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# the commitment tag each bundle scheme's service and exports answer with
_COMMITMENT_TAGS = {
    keyfiles.SCHEME_PQ: pq.COMMITMENT_TAG,
    keyfiles.SCHEME_LA: la.COMMITMENT_TAG,
    keyfiles.SCHEME_HY: hy.COMMITMENT_TAG,
}

# the request for the entries a signature opens; la's commitment is whole
_OPENING_TYPES = {keyfiles.SCHEME_PQ: cco.MSG_PQ_OPENING, keyfiles.SCHEME_HY: cco.MSG_HY_OPENING}


class _CommitmentSource:
    """Pipelined service connection or a preloaded offline export."""

    def __init__(self, args, bundle: keyfiles.VerifierBundle):
        self.bundle = bundle
        self.client = None
        self.offline: dict[tuple[bytes, int], bytes] = {}
        if args.cco:
            host, port = _parse_host_port(args.cco)
            self.client = cco.CcoClient(host, port)
        elif args.commits:
            tag = _COMMITMENT_TAGS[bundle.scheme]
            for blob in keyfiles.load_commitments(args.commits):
                # another scheme's entry for the same (id, epoch) must not
                # replace the one this bundle verifies against
                if len(blob) >= 25 and blob[0] == tag:
                    key = (blob[1:17], int.from_bytes(blob[17:25], "big"))
                    self.offline[key] = blob
        else:
            raise ValueError("either --cco or --commits is required")

    def close(self):
        if self.client:
            self.client.close()

    def openings(self, keys: list[tuple[bytes, int]], indices: list) -> Iterator[object | None]:
        """For each (id, epoch) key, its commitment opened at the unit's
        indices (la: the whole commitment), in order, or None where there
        is none or it does not parse.  The service opens it; an offline
        export's full commitment is opened here, so both verify alike."""
        bundle = self.bundle
        if self.client is None:
            blobs = (self.offline.get(key) for key in keys)
            parse = _open_full
        elif bundle.scheme == keyfiles.SCHEME_LA:
            blobs = self.client.commitments(cco.MSG_LA, keys, bundle.la_params.batch_size)
            parse = _open_full
        else:
            blobs = self.client.openings(_OPENING_TYPES[bundle.scheme], keys, indices)
            parse = _parse_opening
        for blob, opened in zip(blobs, indices):
            try:
                yield None if blob is None else parse(bundle, blob, opened)
            except ValueError:
                yield None  # a malformed commitment is a cryptographic reject


def _open_full(bundle, blob: bytes, indices):
    """A serialized full commitment, parsed and opened at ``indices``
    (la's is used whole)."""
    if bundle.scheme == keyfiles.SCHEME_PQ:
        return pq.PqCommitment.from_bytes(blob).open(indices, bundle.pq_params)
    if bundle.scheme == keyfiles.SCHEME_LA:
        return la.LaCommitment.from_bytes(blob)
    return hy.HyCommitment.from_bytes(blob).open(indices, bundle.pq_params)


def _parse_opening(bundle, blob: bytes, indices):
    """The service's serialized opening at ``indices``, parsed."""
    if bundle.scheme == keyfiles.SCHEME_PQ:
        return pq.PqOpening.from_bytes(blob, indices)
    return hy.HyOpening.from_bytes(blob, indices)


def cmd_verify(args) -> int:
    bundle = keyfiles.load_verifier_bundle(args.pub)
    records = stream.read_stream(args.input, args.format, args.hex)
    try:
        blobs = keyfiles.load_signatures(args.sigs)
    except ValueError as exc:
        # a mangled signature container is a cryptographic reject, not an
        # operational failure: the data offered for verification is bad
        print(f"invalid signature file: {exc}", file=sys.stderr)
        return EXIT_REJECT
    source = _CommitmentSource(args, bundle)
    try:
        results = _verify_all(bundle, records, blobs, source)
    finally:
        source.close()
    good = sum(results)
    print(f"{good}/{len(results)} signatures valid")
    return EXIT_OK if results and all(results) else EXIT_REJECT


def _verify_all(bundle, records, blobs, source) -> list[bool]:
    scheme = bundle.scheme
    if scheme == keyfiles.SCHEME_PQ:
        messages = [r.payload for r in records]
    else:
        messages = stream.into_batches(records, bundle.la_params.batch_size)
    if len(messages) != len(blobs):
        raise ValueError(f"{len(blobs)} signatures for {len(messages)} signing units")

    # every signature is parsed before the first request, so the service
    # sees one pipelined stream; a unit that fails to parse or names a
    # signer outside the bundle is rejected without a request
    signatures = [_parse_signature(bundle, blob) for blob in blobs]
    units = [n for n, signature in enumerate(signatures) if signature is not None]
    keys = [_unit_key(signatures[n]) for n in units]
    derived = [_derive(bundle, messages[n], signatures[n]) for n in units]
    indices = [d.indices if isinstance(d, hy.Opened) else d for d in derived]
    # per-key tables live for this run only: see hases.group
    tables = la.KeyTables(bundle.public_keys, bundle.la_params.group) if bundle.la_params else None
    results = [False] * len(blobs)
    for n, unit_derived, opening in zip(units, derived, source.openings(keys, indices)):
        if opening is not None:
            results[n] = _verify_one(
                bundle, messages[n], signatures[n], opening, unit_derived, tables
            )
    return results


def _unit_key(signature) -> tuple[bytes, int]:
    unit = signature.la if isinstance(signature, hy.HySignature) else signature
    return unit.signer_id, unit.epoch


def _derive(bundle, message, signature):
    """What checking a unit derives from its message before the
    commitment is needed, computed once: the pq indices it opens, hy's
    ``Opened``, nothing for la."""
    if bundle.scheme == keyfiles.SCHEME_PQ:
        return pq.message_indices(message, bundle.pq_params)
    if bundle.scheme == keyfiles.SCHEME_HY:
        return hy.opened(message, signature, bundle.pq_params)
    return None


def _parse_signature(bundle, blob):
    """The parsed signature, or None if it is malformed or its signer
    is not in the bundle (a cryptographic reject)."""
    scheme = bundle.scheme
    try:
        if scheme == keyfiles.SCHEME_PQ:
            signature = pq.PqSignature.from_bytes(blob)
        elif scheme == keyfiles.SCHEME_LA:
            signature = la.LaSignature.from_bytes(blob, bundle.la_params.group)
        else:
            signature = hy.HySignature.from_bytes(blob, bundle.la_params.group)
    except ValueError:
        return None
    return signature if _unit_key(signature)[0] in bundle.public_keys else None


def _verify_one(bundle, message, signature, opening, derived, tables) -> bool:
    # keys outside the subgroup are cryptographic rejects; only transport
    # and file-level failures escape as errors
    scheme = bundle.scheme
    try:
        if scheme == keyfiles.SCHEME_PQ:
            return pq.verify(opening, message, signature, bundle.pq_params, derived)
        group = bundle.la_params.group
        key_table = tables[_unit_key(signature)[0]]
        if scheme == keyfiles.SCHEME_LA:
            return la.verify_batch(key_table, opening, message, signature, group)
        return hy.verify_batch(
            key_table, opening, message, signature, group, bundle.pq_params, derived
        )
    except ValueError:
        return False


# --- serve / request ----------------------------------------------------------


def cmd_serve(args) -> int:
    store = keyfiles.load_store(args.store)
    if args.policy_j1:
        store.set_storage_policy(args.policy_j1)
    server = cco.CcoServer(store, args.host, args.port)
    print(f"listening on {args.host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_request(args) -> int:
    host, port = _parse_host_port(args.cco)
    scheme = keyfiles.SCHEME_TAGS[args.scheme]
    signer_id = parse_signer_id(args.id)
    with cco.CcoClient(host, port) as client:
        if args.export:
            lo, _, hi = args.export.partition(":")
            blobs = client.batch_export(scheme, signer_id, int(lo), int(hi))
            keyfiles.save_commitments(args.out, blobs)
            print(f"exported {len(blobs)} commitments to {args.out}")
            return EXIT_OK
        if args.epoch is None:
            raise ValueError("--epoch or --export is required")
        if scheme == keyfiles.SCHEME_LA and not args.L:
            raise ValueError("--L is required for aggregate requests")
        # a non-OK status raises CcoRequestError: exit 2
        blob = client.commitment_bytes(scheme, signer_id, args.epoch, args.L)
        if args.out:
            keyfiles.save_commitments(args.out, [blob])
            print(f"wrote commitment ({len(blob)} bytes) to {args.out}")
        else:
            print(blob.hex())
    return EXIT_OK


# --- bench ---------------------------------------------------------------------


def cmd_bench(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hases",
        description="forward-secure, aggregate, and hybrid signing with an "
        "oracle-served commitment service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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

    sg = sub.add_parser("sign", help="sign a message stream")
    sg.add_argument("--key", required=True, help="signer key file (rewritten after use)")
    sg.add_argument("--in", dest="input", required=True)
    sg.add_argument("--format", choices=("csv", "bin"), default="csv")
    sg.add_argument("--hex", action="store_true", help="CSV payloads are hex-encoded")
    sg.add_argument("--out", required=True, help="signature file")
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signed message stream")
    vf.add_argument("--pub", required=True, help="verifier bundle from keygen")
    vf.add_argument("--in", dest="input", required=True)
    vf.add_argument("--format", choices=("csv", "bin"), default="csv")
    vf.add_argument("--hex", action="store_true")
    vf.add_argument("--sigs", required=True)
    vf.add_argument("--cco", help="HOST:PORT of a live commitment service")
    vf.add_argument("--commits", help="offline commitment export file")
    vf.set_defaults(func=cmd_verify)

    sv = sub.add_parser("serve", help="serve a provisioned key store")
    sv.add_argument("--store", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0)
    sv.add_argument("--policy-j1", type=int, default=0, help="rebuild anchors for this j1")
    sv.set_defaults(func=cmd_serve)

    rq = sub.add_parser("request", help="fetch commitments from a service")
    rq.add_argument("--cco", required=True, help="HOST:PORT")
    rq.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    rq.add_argument("--id", required=True)
    rq.add_argument("--epoch", type=int)
    rq.add_argument("--L", type=int, default=0)
    rq.add_argument("--export", help="epoch range FROM:TO for offline export")
    rq.add_argument("--out", help="write commitment(s) to this file")
    rq.set_defaults(func=cmd_request)

    bn = sub.add_parser("bench", help="measure signer costs and sizes")
    bn.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    bn.add_argument("--trials", type=int, default=32)
    bn.add_argument("--t", type=int, default=1024)
    bn.add_argument("--k", type=int, default=16)
    bn.add_argument("--J1", type=int, default=0)
    bn.add_argument("--J2", type=int, default=0)
    bn.add_argument("--L", type=int, default=0)
    bn.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HasesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
