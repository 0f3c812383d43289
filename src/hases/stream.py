"""Message stream ingestion for the CLI.

Two input shapes are supported:

* CSV with a ``timestamp`` column followed by a ``payload`` column
  (header optional).  The payload field's bytes are signed verbatim
  (UTF-8), or hex-decoded with ``hex_payload=True``.  Timestamps are
  carried as metadata only and never enter any hash.

* Raw binary framing: repeated records of an 8-byte big-endian
  timestamp, a 4-byte big-endian payload length, and the payload.

``iter_stream`` reads either shape one record at a time, so that ``hases
verify`` holds only the records of the units it is checking;
``read_stream`` returns them all, for ``hases sign``.

Batching into fixed-size windows preserves record order.  A final
partial window is an error, never padded: padding would silently
change what is signed.  ``batches`` makes each window as it is asked
for, so a stream read one record at a time shows a partial final window
only once its records run out.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple


class Record(NamedTuple):
    """One input record.  It compares equal to the plain tuple
    ``(timestamp, payload)``."""

    timestamp: str
    payload: bytes


def iter_stream(path: str | Path, fmt: str, hex_payload: bool = False) -> Iterator[Record]:
    """The records of the file at ``path``, read one at a time as they are
    asked for.  The format is checked and the file opened at once; a
    malformed record raises ValueError when the reader reaches it.  The
    file is closed once the records run out or the iterator is closed,
    even before its first record is read."""
    if fmt == "csv":
        records = _csv_records(open(path, newline="", encoding="utf-8"), hex_payload)
    elif fmt == "bin":
        records = _binary_records(open(path, "rb"))
    else:
        raise ValueError(f"unknown stream format {fmt!r}")
    next(records)  # to the first ``yield``, inside the ``with`` that closes the file
    return records


def _csv_records(handle, hex_payload: bool) -> Iterator[Record]:
    row_num = 0
    with handle:
        yield  # taken by ``iter_stream``
        try:
            for row_num, row in enumerate(csv.reader(handle), start=1):
                if not row:
                    continue
                if row_num == 1 and [c.strip().lower() for c in row[:2]] == ["timestamp", "payload"]:
                    continue
                if len(row) < 2:
                    raise ValueError(f"row {row_num}: expected timestamp,payload")
                if hex_payload:
                    try:
                        payload = bytes.fromhex(row[1])
                    except ValueError as exc:
                        raise ValueError(f"row {row_num}: {exc}") from None
                else:
                    payload = row[1].encode("utf-8")
                yield Record(row[0], payload)
        except csv.Error as exc:
            # raised while reading the next row, as for a field over the csv
            # module's size limit; that limit is process-wide, so it stays
            raise ValueError(f"row {row_num + 1}: {exc}") from None


def _binary_records(handle) -> Iterator[Record]:
    with handle:
        yield  # taken by ``iter_stream``
        while header := handle.read(12):
            if len(header) < 12:
                raise ValueError("truncated binary record header")
            length = int.from_bytes(header[8:], "big")
            payload = read_upto(handle, length)
            if len(payload) < length:
                raise ValueError("truncated binary record payload")
            yield Record(str(int.from_bytes(header[:8], "big")), payload)


# The most one read asks for, so that a length field larger than the
# input allocates no more than the input holds.
_READ_CHUNK = 1 << 16


def read_upto(handle, size: int) -> bytes:
    """``size`` bytes from the binary ``handle``, or fewer where its input
    ends first.  It never asks for the input's length, so a pipe reads
    as a file does."""
    if size <= _READ_CHUNK:
        return handle.read(size)
    parts = []
    while size > 0 and (part := handle.read(min(size, _READ_CHUNK))):
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def read_csv_stream(path: str | Path, hex_payload: bool = False) -> list[Record]:
    return list(iter_stream(path, "csv", hex_payload))


def read_binary_stream(path: str | Path) -> list[Record]:
    return list(iter_stream(path, "bin"))


def read_stream(path: str | Path, fmt: str, hex_payload: bool = False) -> list[Record]:
    return list(iter_stream(path, fmt, hex_payload))


def batches(records: Iterable[Record], batch_size: int) -> Iterator[list[bytes]]:
    """The payloads of ``records`` in consecutive fixed-size windows, order
    kept, each made as it is asked for; a partial final window raises
    ValueError once the records run out."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    return _batches(records, batch_size)


def _batches(records: Iterable[Record], batch_size: int) -> Iterator[list[bytes]]:
    batch: list[bytes] = []
    count = 0
    for count, record in enumerate(records, 1):
        batch.append(record.payload)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        raise ValueError(
            f"{count} records do not divide into batches of {batch_size}; "
            "partial final batches are rejected, not padded"
        )


def into_batches(records: Iterable[Record], batch_size: int) -> list[list[bytes]]:
    """``batches`` as a list: a partial final window raises before any is returned."""
    return list(batches(records, batch_size))
