import tracemalloc

import pytest

from hases.stream import (
    Record,
    into_batches,
    read_binary_stream,
    read_csv_stream,
    read_stream,
)

from conftest import write_binary_stream


def test_csv_with_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("timestamp,payload\n1,hello\n2,world\n")
    records = read_csv_stream(path)
    assert [r.payload for r in records] == [b"hello", b"world"]
    assert records[0].timestamp == "1"


def test_csv_without_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("10,abc\n11,def\n")
    assert [r.payload for r in read_csv_stream(path)] == [b"abc", b"def"]


def test_csv_hex_payloads(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,00ff\n2,a1b2c3\n")
    records = read_csv_stream(path, hex_payload=True)
    assert records[0].payload == b"\x00\xff"
    assert records[1].payload == b"\xa1\xb2\xc3"


def test_csv_missing_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("lonely\n")
    with pytest.raises(ValueError):
        read_csv_stream(path)


def test_binary_round_trip(tmp_path):
    path = tmp_path / "s.bin"
    records = [Record("100", b"\x00\x01binary\xff"), Record("200", b"")]
    write_binary_stream(path, records)
    assert read_binary_stream(path) == records


def test_binary_truncation_detected(tmp_path):
    path = tmp_path / "s.bin"
    write_binary_stream(path, [Record("1", b"payload")])
    data = path.read_bytes()
    path.write_bytes(data[:-2])
    with pytest.raises(ValueError):
        read_binary_stream(path)


def test_a_record_length_past_the_end_allocates_little(tmp_path):
    path = tmp_path / "s.bin"
    path.write_bytes((1).to_bytes(8, "big") + (0xFFFFFFFF).to_bytes(4, "big") + b"short")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated binary record payload"):
            read_binary_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes for a 17-byte file"


def test_read_stream_dispatch(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1,x\n")
    assert read_stream(path, "csv")[0].payload == b"x"
    with pytest.raises(ValueError):
        read_stream(path, "json")


def test_batching_preserves_order():
    records = [Record(str(i), bytes([i])) for i in range(6)]
    batches = into_batches(records, 3)
    assert batches == [[b"\x00", b"\x01", b"\x02"], [b"\x03", b"\x04", b"\x05"]]


def test_partial_final_batch_rejected():
    records = [Record(str(i), b"x") for i in range(5)]
    with pytest.raises(ValueError):
        into_batches(records, 3)


def test_record_is_an_immutable_named_tuple():
    record = Record("7", b"payload")
    assert record == ("7", b"payload")  # equal to the plain tuple, by design
    assert (record.timestamp, record.payload) == ("7", b"payload")
    assert hash(record) == hash(("7", b"payload"))
    with pytest.raises(AttributeError):
        record.payload = b"other"
