"""Binary file formats for keys, stores, signatures, and commitments.

Every file starts with a one-byte scheme tag (0x01 forward-secure,
0x02 aggregate, 0x03 hybrid) followed by fixed-width fields.  Group
backends are identified by their one-byte tag.  Signer key files are
stateful: they carry the current epoch and must be rewritten after
signing so that key evolution survives process restarts.

Commitment files are the offline-mode export: an 8-byte big-endian
entry count followed by the concatenated equal-sized serialized
commitments.  Signature files carry a count followed by
length-prefixed entries (signature sizes vary with the scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import hy, la, pq
from .cco import CcoStore
from .errors import UnknownSigner
from .group import group_by_tag

SCHEME_PQ = 0x01
SCHEME_LA = 0x02
SCHEME_HY = 0x03

SCHEME_NAMES = {SCHEME_PQ: "pq", SCHEME_LA: "la", SCHEME_HY: "hy"}
SCHEME_TAGS = {name: tag for tag, name in SCHEME_NAMES.items()}


def _pq_params_bytes(params: pq.PqParams) -> bytes:
    return (
        params.t.to_bytes(4, "big")
        + params.k.to_bytes(4, "big")
        + params.l.to_bytes(4, "big")
        + params.j1.to_bytes(8, "big")
        + params.j2.to_bytes(8, "big")
    )


def _pq_params_from(data: bytes) -> pq.PqParams:
    return pq.PqParams(
        t=int.from_bytes(data[0:4], "big"),
        k=int.from_bytes(data[4:8], "big"),
        l=int.from_bytes(data[8:12], "big"),
        j1=int.from_bytes(data[12:20], "big"),
        j2=int.from_bytes(data[20:28], "big"),
    )


_PQ_PARAMS_LEN = 28


def _la_params_bytes(params: la.LaParams) -> bytes:
    return (
        bytes((params.group.backend_tag,))
        + params.max_batches.to_bytes(8, "big")
        + params.batch_size.to_bytes(4, "big")
    )


def _la_params_from(data: bytes) -> la.LaParams:
    if len(data) != _LA_PARAMS_LEN:
        raise ValueError("truncated aggregate parameters")
    return la.LaParams(
        group=group_by_tag(data[0]),
        max_batches=int.from_bytes(data[1:9], "big"),
        batch_size=int.from_bytes(data[9:13], "big"),
    )


_LA_PARAMS_LEN = 13


# --- signer key files ---------------------------------------------------


def signer_key_bytes(state) -> bytes:
    if isinstance(state, pq.PqSignerState):
        return (
            bytes((SCHEME_PQ,))
            + state.signer_id
            + state.epoch.to_bytes(8, "big")
            + bytes(state.seed)
            + _pq_params_bytes(state.params)
        )
    if isinstance(state, la.LaSignerState):
        return (
            bytes((SCHEME_LA,))
            + state.signer_id
            + state.epoch.to_bytes(8, "big")
            + state.key.to_bytes(32, "big")
            + _la_params_bytes(state.params)
        )
    if isinstance(state, hy.HySignerState):
        return (
            bytes((SCHEME_HY,))
            + state.signer_id
            + state.la.epoch.to_bytes(8, "big")
            + state.la.key.to_bytes(32, "big")
            + _la_params_bytes(state.la.params)
            + state.pq.epoch.to_bytes(8, "big")
            + bytes(state.pq.seed)
            + _pq_params_bytes(state.pq.params)
        )
    raise TypeError(f"cannot serialize {type(state).__name__}")


def signer_key_from_bytes(data: bytes):
    if not data:
        raise ValueError("empty key file")
    tag = data[0]
    if tag == SCHEME_PQ:
        if len(data) != 1 + 16 + 8 + 32 + _PQ_PARAMS_LEN:
            raise ValueError("bad forward-secure key file length")
        return pq.PqSignerState(
            signer_id=data[1:17],
            seed=bytearray(data[25:57]),
            epoch=int.from_bytes(data[17:25], "big"),
            params=_pq_params_from(data[57:]),
        )
    if tag == SCHEME_LA:
        if len(data) != 1 + 16 + 8 + 32 + _LA_PARAMS_LEN:
            raise ValueError("bad aggregate key file length")
        params = _la_params_from(data[57:])
        key = int.from_bytes(data[25:57], "big")
        if not 0 < key < params.group.q:
            raise ValueError("aggregate private key out of range")
        return la.LaSignerState(
            signer_id=data[1:17],
            key=key,
            epoch=int.from_bytes(data[17:25], "big"),
            params=params,
        )
    if tag == SCHEME_HY:
        la_end = 1 + 16 + 8 + 32 + _LA_PARAMS_LEN
        if len(data) != la_end + 8 + 32 + _PQ_PARAMS_LEN:
            raise ValueError("bad hybrid key file length")
        signer_id = data[1:17]
        la_params = _la_params_from(data[57:la_end])
        la_state = la.LaSignerState(
            signer_id=signer_id,
            key=int.from_bytes(data[25:57], "big"),
            epoch=int.from_bytes(data[17:25], "big"),
            params=la_params,
        )
        pq_state = pq.PqSignerState(
            signer_id=signer_id,
            seed=bytearray(data[la_end + 8 : la_end + 40]),
            epoch=int.from_bytes(data[la_end : la_end + 8], "big"),
            params=_pq_params_from(data[la_end + 40 :]),
        )
        return hy.HySignerState(la_state, pq_state)
    raise ValueError(f"unknown scheme tag {tag:#04x}")


def save_signer_key(path: str | Path, state) -> None:
    Path(path).write_bytes(signer_key_bytes(state))


def load_signer_key(path: str | Path):
    return signer_key_from_bytes(Path(path).read_bytes())


# --- verifier bundles -----------------------------------------------------


@dataclass(frozen=True)
class VerifierBundle:
    """Public side of a key ceremony: parameters plus public keys.

    Public keys stay in their 32-byte encodings; a verifier decodes
    (and checks) one only when it checks a batch of that signer, through
    ``la.KeyTables``.
    """

    scheme: int
    pq_params: pq.PqParams | None
    la_params: la.LaParams | None
    public_keys: dict[bytes, bytes | None]  # None for the pure FS scheme

    def to_bytes(self) -> bytes:
        out = bytes((self.scheme,))
        if self.scheme in (SCHEME_PQ, SCHEME_HY):
            out += _pq_params_bytes(self.pq_params)
        if self.scheme in (SCHEME_LA, SCHEME_HY):
            out += _la_params_bytes(self.la_params)
            out += len(self.public_keys).to_bytes(8, "big")
            for signer_id in sorted(self.public_keys):
                out += signer_id + self.public_keys[signer_id]
        else:
            out += len(self.public_keys).to_bytes(8, "big")
            for signer_id in sorted(self.public_keys):
                out += signer_id
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifierBundle":
        if not data:
            raise ValueError("empty verifier bundle")
        scheme = data[0]
        offset = 1
        pq_params = la_params = None
        if scheme in (SCHEME_PQ, SCHEME_HY):
            pq_params = _pq_params_from(data[offset : offset + _PQ_PARAMS_LEN])
            offset += _PQ_PARAMS_LEN
        if scheme in (SCHEME_LA, SCHEME_HY):
            la_params = _la_params_from(data[offset : offset + _LA_PARAMS_LEN])
            offset += _LA_PARAMS_LEN
        elif scheme != SCHEME_PQ:
            raise ValueError(f"unknown scheme tag {scheme:#04x}")
        count = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        public_keys: dict[bytes, bytes | None] = {}
        entry = 48 if la_params else 16
        if len(data) != offset + count * entry:
            raise ValueError("bad verifier bundle length")
        for _ in range(count):
            signer_id = data[offset : offset + 16]
            public_keys[signer_id] = data[offset + 16 : offset + 48] if la_params else None
            offset += entry
        return cls(scheme, pq_params, la_params, public_keys)


def save_verifier_bundle(path: str | Path, bundle: VerifierBundle) -> None:
    Path(path).write_bytes(bundle.to_bytes())


def load_verifier_bundle(path: str | Path) -> VerifierBundle:
    return VerifierBundle.from_bytes(Path(path).read_bytes())


# --- store files -----------------------------------------------------------

_STORE_MAGIC = b"HASES-STORE\x01"


def store_bytes(store: CcoStore) -> bytes:
    out = bytearray(_STORE_MAGIC)
    try:
        material = store.pq_material()
    except UnknownSigner:
        material = None
    if material is None:
        out += b"\x00"
    else:
        out += b"\x01" + material.msk + _pq_params_bytes(material.params)
        out += len(material.anchors).to_bytes(8, "big")
        for signer_id in sorted(material.anchors):
            anchors = material.anchors[signer_id]
            out += signer_id + len(anchors).to_bytes(4, "big") + b"".join(anchors)
    try:
        la_material = store.la_material()
    except UnknownSigner:
        la_material = None
    if la_material is None:
        out += b"\x00"
    else:
        out += b"\x01" + la_material.msk + _la_params_bytes(la_material.params)
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

    store = CcoStore()
    if take(1)[0] == 1:
        msk = take(32)
        params = _pq_params_from(take(_PQ_PARAMS_LEN))
        count = int.from_bytes(take(8), "big")
        anchors = {}
        for _ in range(count):
            signer_id = take(16)
            n = int.from_bytes(take(4), "big")
            chunk = take(n * 32)
            anchors[signer_id] = tuple(chunk[i * 32 : (i + 1) * 32] for i in range(n))
        store.provision(pq.PqKeyMaterial(msk, params, anchors))
    if take(1)[0] == 1:
        msk = take(32)
        params = _la_params_from(take(_LA_PARAMS_LEN))
        count = int.from_bytes(take(8), "big")
        chunk = take(count * 16)
        ids = frozenset(chunk[i * 16 : (i + 1) * 16] for i in range(count))
        store.provision(la.LaKeyMaterial(msk, params, ids))
    if offset != len(data):
        raise ValueError("trailing bytes in key store file")
    return store


def save_store(path: str | Path, store) -> None:
    Path(path).write_bytes(store_bytes(store))


def load_store(path: str | Path):
    return store_from_bytes(Path(path).read_bytes())


# --- signature and commitment files ------------------------------------------


def save_signatures(path: str | Path, blobs: Sequence[bytes]) -> None:
    with open(path, "wb") as handle:
        handle.write(len(blobs).to_bytes(8, "big"))
        for blob in blobs:
            handle.write(len(blob).to_bytes(4, "big"))
            handle.write(blob)


def load_signatures(path: str | Path) -> list[bytes]:
    data = Path(path).read_bytes()
    count = int.from_bytes(data[:8], "big")
    blobs = []
    offset = 8
    for _ in range(count):
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(data):
            raise ValueError("truncated signature file")
        blobs.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes in signature file")
    return blobs


def save_commitments(path: str | Path, blobs: Sequence[bytes]) -> None:
    """Offline export: entry count header, then equal-sized entries."""
    sizes = {len(b) for b in blobs}
    if len(sizes) > 1:
        raise ValueError("commitment exports must be homogeneous")
    with open(path, "wb") as handle:
        handle.write(len(blobs).to_bytes(8, "big"))
        for blob in blobs:
            handle.write(blob)


def load_commitments(path: str | Path) -> list[bytes]:
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise ValueError("truncated commitment file")
    count = int.from_bytes(data[:8], "big")
    body = data[8:]
    if count == 0:
        if body:
            raise ValueError("trailing bytes in commitment file")
        return []
    if len(body) % count:
        raise ValueError("commitment file does not divide into equal entries")
    size = len(body) // count
    return [body[i : i + size] for i in range(0, len(body), size)]
