"""Binary file formats for keys, stores, signatures, and commitments.

Key files and verifier bundles start with the one-byte scheme tag
defined in ``hases.schemes`` (0x01 forward-secure, 0x02 aggregate, 0x03
hybrid) followed by fixed-width fields.  Group backends are identified
by their one-byte tag.  A signer key file is its signer state's
``to_bytes``; it carries the current epoch and must be rewritten after
signing so that key evolution survives process restarts.

Commitment files are the offline-mode export, in the container of
``cco.export_bytes``, the single replies of its epochs.  Signature files
carry a count followed by length-prefixed entries (signature sizes
vary with the scheme): ``signatures_bytes`` builds the container, and
``iter_signatures`` reads it an entry at a time.

A key table file lies beside an aggregate or hybrid bundle, at
``<bundle>.tables``: the comb table of each public key, built once
so that a verifier need not build it again on every run.
``key_tables_bytes`` alone builds it, for ``hases keygen``, ``hases
tables`` and the layer benchmark (``bench/layers.py``) alike, each table
by ``group.precompute``, which checks the key first.  Its layout is fixed: the magic, the group
tag, the SHA-256 of the bundle's bytes, the count and the sorted signer
ids (the bundle's), then one table of ``group.table_len`` bytes per id
in that order.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from . import hy, la, pq, schemes
from .cco import CcoStore, export_bytes, export_from_bytes
from .errors import BadSignatureFile, KeyFileInUse
from .stream import read_upto


# --- signer key files ---------------------------------------------------


def signer_key_bytes(state) -> bytes:
    return schemes.of(state).state.to_bytes(state)


def signer_key_from_bytes(data: bytes):
    if not data:
        raise ValueError("empty key file")
    return schemes.by_tag(data[0]).state.from_bytes(data)


def save_signer_key(path: str | Path, state) -> None:
    write_secret(path, signer_key_bytes(state))


def write_secret(path: str | Path, blob: bytes) -> None:
    """Write a key file or a store file atomically, readable by its owner
    only (mode 0600, whatever the umask): a crash leaves the old file or
    the new one, never a torn file that only an older copy could replace."""
    path = Path(path)
    fd, temporary = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # makes the rename itself durable
    finally:
        os.close(directory)


@contextmanager
def signer_key_lock(path: str | Path) -> Iterator[None]:
    """Hold an exclusive lock on the key file for the block, through the
    sibling ``<path>.lock``; ``KeyFileInUse`` at once if another process
    holds it.  Advisory and POSIX-only (``flock``): it keeps two ``hases
    sign`` runs from signing at the same epochs, not other writers."""
    import fcntl  # POSIX-only, so imported only where a key is locked

    with open(f"{path}.lock", "ab") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise KeyFileInUse(f"{path} is in use by another signer") from None
        yield


def load_signer_key(path: str | Path):
    return _load(path, signer_key_from_bytes, "a signer key file")


def _load(path: str | Path, parse, what: str):
    """``parse`` of the file's bytes, its ValueError naming the file as not ``what``."""
    data = Path(path).read_bytes()
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path} is not {what}: {exc}") from exc


# --- verifier bundles -----------------------------------------------------


class VerifierBundle(NamedTuple):
    """Public side of a key ceremony: parameters plus public keys.

    Public keys stay in their 32-byte encodings; a verifier decodes
    (and checks) one only when it checks a batch of that signer, through
    ``la.KeyTables``.
    """

    scheme: int  # the tag of a ``hases.schemes`` descriptor
    pq_params: pq.PqParams | None
    la_params: la.LaParams | None
    public_keys: dict[bytes, bytes | None]  # None for the pure FS scheme

    def to_bytes(self) -> bytes:
        scheme = schemes.by_tag(self.scheme)
        out = bytes((scheme.tag,))
        if scheme.has_pq:
            out += self.pq_params.to_bytes()
        if scheme.has_la:
            out += self.la_params.to_bytes()
        out += len(self.public_keys).to_bytes(8, "big")
        for signer_id in sorted(self.public_keys):
            out += signer_id + (self.public_keys[signer_id] if scheme.has_la else b"")
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifierBundle":
        if not data:
            raise ValueError("empty verifier bundle")
        scheme = schemes.by_tag(data[0])
        offset = 1
        pq_params = la_params = None
        if scheme.has_pq:
            pq_params = pq.PqParams.from_bytes(data[offset : offset + pq.PARAMS_LEN])
            offset += pq.PARAMS_LEN
        if scheme.has_la:
            la_params = la.LaParams.from_bytes(data[offset : offset + la.PARAMS_LEN])
            offset += la.PARAMS_LEN
        count = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        public_keys: dict[bytes, bytes | None] = {}
        entry = 48 if la_params else 16
        if len(data) != offset + count * entry:
            raise ValueError("bad verifier bundle length")
        previous = b""
        for _ in range(count):
            signer_id = data[offset : offset + 16]
            # the order to_bytes writes: a repeated id would let one key
            # replace another, and the bytes would not round-trip
            if signer_id <= previous:
                raise ValueError("signer ids not in strictly increasing order")
            public_keys[signer_id] = data[offset + 16 : offset + 48] if la_params else None
            previous = signer_id
            offset += entry
        return cls(scheme.tag, pq_params, la_params, public_keys)


def save_verifier_bundle(path: str | Path, bundle: VerifierBundle) -> None:
    Path(path).write_bytes(bundle.to_bytes())


def load_verifier_bundle(path: str | Path) -> VerifierBundle:
    return _load(path, VerifierBundle.from_bytes, "a verifier bundle")


# --- key table files -------------------------------------------------------

_TABLES_MAGIC = b"HASES-TABLES\x01"
_TABLES_HEAD = len(_TABLES_MAGIC) + 1 + 32 + 8  # magic, group tag, bundle digest, count


def tables_path(pub: str | Path) -> Path:
    """The key table file of the bundle at ``pub``: beside it."""
    return Path(f"{pub}.tables")


def _bundle_digest(bundle: VerifierBundle) -> bytes:
    # binds the file to the bundle's bytes; not a domain hash, so hashlib
    # directly, out of the hash counters (OpenSSL, fastest on an input this
    # large).  Imported here so that `hases serve` and `hases sign`, which
    # never call this, do not load OpenSSL
    import hashlib

    return hashlib.sha256(bundle.to_bytes()).digest()


def key_tables_bytes(bundle: VerifierBundle) -> bytes:
    """The table file of an aggregate or hybrid ``bundle``: each signer's
    table built by ``group.precompute`` of its key, so with the subgroup
    check.  ValueError, naming the signer, for a key that fails it."""
    group = bundle.la_params.group
    ids = sorted(bundle.public_keys)
    out = [_TABLES_MAGIC, bytes((group.backend_tag,)), _bundle_digest(bundle),
           len(ids).to_bytes(8, "big"), *ids]
    for signer_id in ids:
        try:
            out.append(group.table_bytes(group.precompute(bundle.public_keys[signer_id])))
        except ValueError as exc:
            raise ValueError(f"the key of signer {signer_id.hex()}: {exc}") from exc
    return b"".join(out)


def load_key_tables(path: str | Path, bundle: VerifierBundle, signer_ids) -> dict:
    """The tables of ``signer_ids`` (signers of ``bundle``) from the table
    file at ``path``, reading no other table.  ValueError, naming the
    file, unless it was written for this bundle's bytes and group, holds
    the bundle's ids and has exactly the length they give it."""
    group = bundle.la_params.group
    with open(path, "rb") as handle:
        try:
            index = _table_index(handle, bundle)
            tables = {}
            for signer_id in sorted(signer_ids, key=index.__getitem__):
                handle.seek(index[signer_id])
                tables[signer_id] = group.table_from_bytes(handle.read(group.table_len))
            return tables
        except ValueError as exc:
            raise ValueError(f"{path} is not the key table file of this bundle: {exc}") from exc


def _table_index(handle, bundle: VerifierBundle) -> dict[bytes, int]:
    """Signer id -> offset of its table, once the header of the table
    file open in ``handle`` is checked against ``bundle``."""
    group = bundle.la_params.group
    head = handle.read(_TABLES_HEAD)
    if not head.startswith(_TABLES_MAGIC):
        raise ValueError("not a key table file")
    if len(head) < _TABLES_HEAD:
        raise ValueError("truncated key table file")
    tag = head[len(_TABLES_MAGIC)]
    if tag != group.backend_tag:
        raise ValueError(f"group tag {tag:#04x}, not the bundle's {group.backend_tag:#04x}")
    if head[len(_TABLES_MAGIC) + 1 : -8] != _bundle_digest(bundle):
        raise ValueError("written for another verifier bundle")
    count = int.from_bytes(head[-8:], "big")
    size = os.fstat(handle.fileno()).st_size
    tables_at = _TABLES_HEAD + count * 16
    expected = tables_at + count * group.table_len
    if size != expected:
        raise ValueError(f"{size} bytes where its {count} tables take {expected}"
                         f" ({'truncated' if size < expected else 'trailing bytes'})")
    ids = handle.read(count * 16)
    ids = [ids[i : i + 16] for i in range(0, len(ids), 16)]
    if ids != sorted(bundle.public_keys):
        raise ValueError("its signer ids are not the bundle's")
    return {signer_id: tables_at + n * group.table_len for n, signer_id in enumerate(ids)}


# --- store files -----------------------------------------------------------

_STORE_MAGIC = b"HASES-STORE\x01"


def store_bytes(store: CcoStore) -> bytes:
    out = bytearray(_STORE_MAGIC)
    pq_material, la_material = store.pq_part, store.la_part
    if pq_material is None:
        out += b"\x00"
    else:
        out += b"\x01" + pq_material.msk + pq_material.params.to_bytes()
        out += len(pq_material.anchors).to_bytes(8, "big")
        for signer_id in sorted(pq_material.anchors):
            anchors = pq_material.anchors[signer_id]
            out += signer_id + len(anchors).to_bytes(4, "big") + b"".join(anchors)
    if la_material is None:
        out += b"\x00"
    else:
        out += b"\x01" + la_material.msk + la_material.params.to_bytes()
        out += len(la_material.signer_ids).to_bytes(8, "big")
        out += b"".join(sorted(la_material.signer_ids))
    return bytes(out)


def store_from_bytes(data: bytes) -> CcoStore:
    if not data.startswith(_STORE_MAGIC):
        raise ValueError("not a key store file")
    offset = len(_STORE_MAGIC)

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise ValueError("truncated key store file")
        offset += n
        return data[offset - n : offset]

    def present(what: str) -> bool:
        flag = take(1)[0]
        if flag > 1:
            raise ValueError(f"{what} section flag {flag:#04x}, not 0 or 1")
        return flag == 1

    def signer_count(what: str) -> int:
        count = int.from_bytes(take(8), "big")
        if not count:
            raise ValueError(f"{what} section lists no signers")
        return count

    pq_material = la_material = None
    if present("forward-secure"):
        msk = take(32)
        params = pq.PqParams.from_bytes(take(pq.PARAMS_LEN))
        anchors = {}
        for _ in range(signer_count("forward-secure")):
            signer_id = take(16)
            n = int.from_bytes(take(4), "big")
            if n != params.j1 - 1:
                raise ValueError(
                    f"signer {signer_id.hex()} has {n} anchors, not j1 - 1 = {params.j1 - 1}")
            chunk = take(n * 32)
            anchors[signer_id] = tuple(chunk[i * 32 : (i + 1) * 32] for i in range(n))
        pq_material = pq.PqKeyMaterial(msk, params, anchors)
    if present("aggregate"):
        msk = take(32)
        params = la.LaParams.from_bytes(take(la.PARAMS_LEN))
        count = signer_count("aggregate")
        chunk = take(count * 16)
        ids = frozenset(chunk[i * 16 : (i + 1) * 16] for i in range(count))
        la_material = la.LaKeyMaterial(msk, params, ids)
    if offset != len(data):
        raise ValueError("trailing bytes in key store file")
    if pq_material and la_material:
        # what hy.keygen writes: both parts over one id list and J epochs
        if la_material.params.max_batches != pq_material.params.epochs:
            raise ValueError(f"aggregate section has {la_material.params.max_batches} batches,"
                             f" not the forward-secure J = {pq_material.params.epochs}")
        if la_material.signer_ids != pq_material.anchors.keys():
            raise ValueError("the two sections list different signer ids")
        return CcoStore(hy.HyKeyMaterial(la_material, pq_material))
    if not (pq_material or la_material):
        raise ValueError("key store file holds no key material")
    return CcoStore(pq_material or la_material)


def save_store(path: str | Path, store) -> None:
    write_secret(path, store_bytes(store))


def load_store(path: str | Path):
    return _load(path, store_from_bytes, "a key store file")


# --- signature and commitment files ------------------------------------------


def signatures_bytes(blobs: Sequence[bytes]) -> bytes:
    """The signature container: an 8-byte count, then each entry as a
    4-byte length and its bytes."""
    parts = [len(blobs).to_bytes(8, "big")]
    for blob in blobs:
        parts += (len(blob).to_bytes(4, "big"), blob)
    return b"".join(parts)


def save_signatures(path: str | Path, blobs: Sequence[bytes]) -> None:
    Path(path).write_bytes(signatures_bytes(blobs))


def iter_signatures(path: str | Path) -> Iterator[bytes]:
    """The entries of the signature file at ``path``, each read as it is
    asked for.  The file is opened and its count read at once; a
    truncated entry or bytes after the last one raise
    ``BadSignatureFile``, naming the file, when the reader reaches them.
    The file may be a pipe: its length is never asked."""
    handle = open(path, "rb")
    try:
        head = handle.read(8)
        if len(head) < 8:
            raise _bad_signature_file(path, "truncated signature file")
    except BaseException:
        handle.close()
        raise
    return _signature_entries(handle, path, int.from_bytes(head, "big"))


def _signature_entries(handle, path, count: int) -> Iterator[bytes]:
    with handle:
        for _ in range(count):
            head = handle.read(4)
            length = int.from_bytes(head, "big")
            blob = read_upto(handle, length)
            if len(head) < 4 or len(blob) < length:
                raise _bad_signature_file(path, "truncated signature file")
            yield blob
        if handle.read(1):
            raise _bad_signature_file(path, "trailing bytes in signature file")


def _bad_signature_file(path, reason: str) -> BadSignatureFile:
    return BadSignatureFile(f"{path} is not a signature file: {reason}")


def load_signatures(path: str | Path) -> list[bytes]:
    return list(iter_signatures(path))


def save_commitments(path: str | Path, blobs: Sequence[bytes]) -> None:
    """Offline export: see ``cco.export_bytes``."""
    Path(path).write_bytes(export_bytes(blobs))


def load_commitments(path: str | Path) -> list[bytes]:
    return _load(path, export_from_bytes, "a commitment export")
