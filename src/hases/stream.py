"""Message stream ingestion for the CLI.

Two input shapes are supported:

* CSV with a ``timestamp`` column followed by a ``payload`` column
  (header optional).  The payload field's bytes are signed verbatim
  (UTF-8), or hex-decoded with ``hex_payload=True``.  Timestamps are
  carried as metadata only and never enter any hash.

* Raw binary framing: repeated records of an 8-byte big-endian
  timestamp, a 4-byte big-endian payload length, and the payload.

Batching into fixed-size windows preserves record order.  A final
partial window is an error, never padded: padding would silently
change what is signed.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple, Sequence


class Record(NamedTuple):
    """One input record.  It compares equal to the plain tuple
    ``(timestamp, payload)``."""

    timestamp: str
    payload: bytes


def read_csv_stream(path: str | Path, hex_payload: bool = False) -> list[Record]:
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row_num, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if row_num == 1 and [c.strip().lower() for c in row[:2]] == ["timestamp", "payload"]:
                continue
            if len(row) < 2:
                raise ValueError(f"row {row_num}: expected timestamp,payload")
            payload = bytes.fromhex(row[1]) if hex_payload else row[1].encode("utf-8")
            records.append(Record(row[0], payload))
    return records


def read_binary_stream(path: str | Path) -> list[Record]:
    data = Path(path).read_bytes()
    records = []
    offset = 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise ValueError("truncated binary record header")
        timestamp = int.from_bytes(data[offset : offset + 8], "big")
        length = int.from_bytes(data[offset + 8 : offset + 12], "big")
        offset += 12
        if offset + length > len(data):
            raise ValueError("truncated binary record payload")
        records.append(Record(str(timestamp), data[offset : offset + length]))
        offset += length
    return records


def write_binary_stream(path: str | Path, records: Sequence[Record]) -> None:
    with open(path, "wb") as handle:
        for record in records:
            handle.write(int(record.timestamp).to_bytes(8, "big"))
            handle.write(len(record.payload).to_bytes(4, "big"))
            handle.write(record.payload)


def read_stream(path: str | Path, fmt: str, hex_payload: bool = False) -> list[Record]:
    if fmt == "csv":
        return read_csv_stream(path, hex_payload)
    if fmt == "bin":
        return read_binary_stream(path)
    raise ValueError(f"unknown stream format {fmt!r}")


def into_batches(records: Sequence[Record], batch_size: int) -> list[list[bytes]]:
    """Split payloads into consecutive fixed-size windows, order kept."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if len(records) % batch_size:
        raise ValueError(
            f"{len(records)} records do not divide into batches of {batch_size}; "
            "partial final batches are rejected, not padded"
        )
    payloads = [r.payload for r in records]
    return [payloads[i : i + batch_size] for i in range(0, len(payloads), batch_size)]
