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

from . import cco, keyfiles, la, pq, schemes, stream
from .errors import HasesError
from .group import production_group, small_test_group
from .hashing import read_header

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
    store = cco.CcoStore()
    store.provision(material)
    bundle = keyfiles.VerifierBundle(scheme.tag, pq_params, la_params, public)

    secret_files = {out / f"signer_{sid.hex()}.key": keyfiles.signer_key_bytes(state)
                    for sid, state in states.items()}
    secret_files[out / "cco.store"] = keyfiles.store_bytes(store)
    public_blob = bundle.to_bytes()

    # everything validated; only now touch the filesystem
    out.mkdir(parents=True, exist_ok=True)
    for path, blob in secret_files.items():
        keyfiles.write_secret(path, blob)
    (out / "verifier.pub").write_bytes(public_blob)
    print(f"wrote {len(secret_files) + 1} files to {out}")
    return EXIT_OK


# --- sign ------------------------------------------------------------------


def cmd_sign(args) -> int:
    # locked from load to save: a second signer of this key would sign
    # again at the epochs this one burns
    with keyfiles.signer_key_lock(args.key):
        state = keyfiles.load_signer_key(args.key)
        records = stream.read_stream(args.input, args.format, args.hex)
        blobs = schemes.of(state).sign(state, records)
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


class _CommitmentSource:
    """Where each unit's commitment parts come from: a pipelined service
    connection, or a preloaded offline export."""

    def __init__(self, args, bundle: keyfiles.VerifierBundle):
        self.scheme = scheme = schemes.by_tag(bundle.scheme)
        self.bundle = bundle
        self.client = None
        self.offline: dict[tuple[bytes, int], bytes] = {}
        if args.cco:
            host, port = _parse_host_port(args.cco)
            self.client = cco.CcoClient(host, port)
        elif args.commits:
            for blob in keyfiles.load_commitments(args.commits):
                # another scheme's entry for the same (id, epoch) must not
                # replace the one this bundle verifies against
                try:
                    self.offline[read_header(blob, scheme.commitment_tag, "commitment")] = blob
                except ValueError:
                    continue
        else:
            raise ValueError("either --cco or --commits is required")

    def close(self):
        if self.client:
            self.client.close()

    def layer_parts(self, layers: list[schemes.Layers], tables) -> Iterator[tuple]:
        """(position, aggregate commitment, pq opening) for each unit's
        ``Layers``: None for a layer the unit lacks, or whose part the
        service refused or the export lacks or holds malformed, and
        ``_PROVEN`` for an aggregate layer a combined check passed."""
        if self.client is None:
            return self._offline_parts(layers)
        return self._online_parts(layers, tables)

    def _offline_parts(self, layers: list[schemes.Layers]) -> Iterator[tuple]:
        """Each unit's parts, in order, from the export entry at its (id,
        epoch); the pq part is opened at the unit's indices."""
        commitment_parts, pq_params = self.scheme.commitment_parts, self.bundle.pq_params
        for n, unit in enumerate(layers):
            signature = (unit.la or unit.pq)[1]  # either layer's: both carry its id and epoch
            blob = self.offline.get((signature.signer_id, signature.epoch))
            la_part, pq_part = _parsed(commitment_parts, blob) or (None, None)
            opening = _parsed(pq.PqCommitment.open, pq_part, unit.pq[2], pq_params) if unit.pq else None
            yield n, la_part, opening

    def _online_parts(self, layers: list[schemes.Layers], tables) -> Iterator[tuple]:
        """Each unit's parts, as they arrive.

        One pipelined stream first asks for a combined nonce commitment
        per signer (per ``cco.MAX_COMBINED_EPOCHS`` of its units), then for
        every pq opening; a unit is yielded as its opening arrives, so its
        check overlaps the service's next builds.  Only the aggregate
        layers no combined check passed are asked for again, each on its
        own (``0x02``), and yielded last."""
        client, group = self.client, self.bundle.la_params and self.bundle.la_params.group
        combined = _combinations(layers, self.bundle) if group and la.combinable(group) else []
        payloads = [cco.combined_payload(sid, seed, [b[0] for b in batches])
                    for sid, seed, _, batches in combined]
        payloads += [cco.opening_payload(cco.MSG_PQ_OPENING, sig.signer_id, sig.epoch, indices)
                     for _, sig, indices in (unit.pq for unit in layers if unit.pq)]
        replies = client.ok_bodies(payloads)
        proven = set()
        for (sid, seed, positions, batches), reply in zip(combined, replies):
            try:
                if reply == la.combined_value(tables[sid], seed, batches, group):
                    proven.update(positions)
            except ValueError:
                pass  # a key outside the subgroup: each unit is rejected alone
        alone = []
        for n, unit in enumerate(layers):
            opening = _parsed(pq.PqOpening.from_bytes, next(replies), unit.pq[2]) if unit.pq else None
            if unit.la and n not in proven:
                alone.append((n, opening))
            else:
                yield n, _PROVEN if unit.la else None, opening
        keys = [(layers[n].la[1].signer_id, layers[n].la[1].epoch) for n, _ in alone]
        for (n, opening), blob in zip(alone, client.commitments(cco.MSG_LA, keys)):
            yield n, _parsed(la.LaCommitment.from_bytes, blob), opening


# an aggregate layer that a combined check has passed
_PROVEN = object()


def _parsed(parse, blob, *args):
    """``parse(blob, *args)``, or None if blob is None or ``parse`` raises
    ValueError (a malformed commitment is a cryptographic reject)."""
    try:
        return None if blob is None else parse(blob, *args)
    except ValueError:
        return None


def _combinations(layers: list[schemes.Layers], bundle) -> list[tuple]:
    """(id, seed, unit positions, (epoch, challenge sum, response sum) per
    unit) of each combined check: a signer's units in order, at most
    ``cco.MAX_COMBINED_EPOCHS`` per check.  A unit of the wrong length or
    outside [1, J] is left out, to be checked alone."""
    params = bundle.la_params
    by_signer: dict[bytes, list[int]] = {}
    for n, unit in enumerate(layers):
        messages, signature, _ = unit.la
        if len(messages) == params.batch_size and 1 <= signature.epoch <= params.max_batches:
            by_signer.setdefault(signature.signer_id, []).append(n)
    combined = []
    for signer_id, units in by_signer.items():
        for start in range(0, len(units), cco.MAX_COMBINED_EPOCHS):
            positions = units[start : start + cco.MAX_COMBINED_EPOCHS]
            batches = [(layers[n].la[1].epoch, layers[n].la[2], layers[n].la[1].agg)
                       for n in positions]
            combined.append((signer_id, la.combination_seed(signer_id, batches), positions,
                             batches))
    return combined


def cmd_verify(args) -> int:
    bundle = keyfiles.load_verifier_bundle(args.pub)
    records = stream.read_stream(args.input, args.format, args.hex)
    try:
        blobs = keyfiles.load_signatures(args.sigs)
    except ValueError as exc:
        # a mangled signature container is a cryptographic reject, not an
        # operational failure: the data offered for verification is bad
        print(f"rejected: {exc}", file=sys.stderr)
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
    scheme = schemes.by_tag(bundle.scheme)
    messages = scheme.units(records, bundle)
    if len(messages) != len(blobs):
        raise ValueError(f"{len(blobs)} signatures for {len(messages)} signing units")

    # every signature is parsed before the first request, so the service
    # sees one pipelined stream; a unit that fails to parse or names a
    # signer outside the bundle is rejected without a request
    signatures = [_parse_signature(scheme, bundle, blob) for blob in blobs]
    units = [n for n, signature in enumerate(signatures) if signature is not None]
    # what each check derives before its commitment is needed, computed once
    layers = [scheme.layers(messages[n], signatures[n], bundle) for n in units]
    # per-key tables live for this run only: see hases.group
    tables = la.KeyTables(bundle.public_keys, bundle.la_params.group) if bundle.la_params else None
    results = [False] * len(blobs)
    for i, la_part, opening in source.layer_parts(layers, tables):
        try:
            results[units[i]] = _layers_valid(layers[i], la_part, opening, bundle, tables)
        except ValueError:
            pass  # a key outside the subgroup is a cryptographic reject
    return results


def _layers_valid(unit: schemes.Layers, la_commitment, opening, bundle, tables) -> bool:
    """Whether each layer of ``unit`` checks out against its part from
    ``_CommitmentSource.layer_parts``, online or offline."""
    if unit.la and la_commitment is not _PROVEN:
        messages, signature, challenge = unit.la
        if la_commitment is None or not la.verify_batch(
            tables[signature.signer_id], la_commitment, messages, signature,
            bundle.la_params.group, challenge,
        ):
            return False
    if unit.pq:
        message, signature, indices = unit.pq
        return opening is not None and pq.verify(
            opening, message, signature, bundle.pq_params, indices)
    return True


def _parse_signature(scheme, bundle, blob):
    """The parsed signature, or None if it is malformed or its signer
    is not in the bundle (a cryptographic reject)."""
    try:
        signature = scheme.parse_signature(blob, bundle)
    except ValueError:
        return None
    return signature if signature.signer_id in bundle.public_keys else None


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
    scheme = schemes.BY_NAME[args.scheme]
    signer_id = parse_signer_id(args.id)
    with cco.CcoClient(host, port) as client:
        if args.export:
            lo, _, hi = args.export.partition(":")
            blobs = client.batch_export(scheme.tag, signer_id, int(lo), int(hi))
            keyfiles.save_commitments(args.out, blobs)
            print(f"exported {len(blobs)} commitments to {args.out}")
            return EXIT_OK
        if args.epoch is None:
            raise ValueError("--epoch or --export is required")
        # a non-OK status raises CcoRequestError: exit 2
        blob = client.commitment_bytes(scheme.tag, signer_id, args.epoch)
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
