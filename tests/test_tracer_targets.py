"""The benchmark's span tracer still sees every layer the CLI runs through.

``perfbench/spans.py`` wraps functions by replacing them on their
module or class.  A caller that holds a function object taken at import
time, instead of looking it up on its module when it calls, bypasses
that wrapper, and its spans vanish from the per-layer metrics without
any error.  This runs ``hases sign``, then ``hases verify`` against an
export file and against a live service, in-process under the installed
tracer, and checks that each scheme's sign and verify spans are
recorded, once per signed unit.  Both sources check a hy unit layer by
layer, so its verify spans are those of ``la.verify_batch`` and
``pq.verify``; ``hy.verify_batch`` is the reference check the CLI does
not call.  On the tiny group no combined check is made (``la.combinable``),
so every aggregate layer is checked alone online as well.
"""

import sys
from pathlib import Path

import pytest

from hases import cco, cli, keyfiles, transport

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
SIGNER = "aa" * 16
RECORDS = 8
BATCH = 2

# scheme -> (request type of its commitments, units signed, span names
# recorded once per unit by ``sign``, and by each ``verify``)
SCHEMES = {
    "pq": (cco.MSG_PQ, RECORDS, ("pq.sign",), ("pq.verify",)),
    "la": (cco.MSG_LA, RECORDS // BATCH, ("la.sign_batch",), ("la.verify_batch",)),
    "hy": (cco.MSG_HY, RECORDS // BATCH, ("hy.sign_batch", "la.sign_batch", "pq.sign"),
           ("la.verify_batch", "pq.verify")),
}


@pytest.fixture
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_sign_and_verify_spans_are_recorded(tmp_path, monkeypatch, tracer, scheme):
    msg_type, units, sign_names, verify_names = SCHEMES[scheme]
    monkeypatch.setenv("HASES_BACKEND", "tiny")
    ids = tmp_path / "ids.txt"
    ids.write_text(SIGNER + "\n")
    records = tmp_path / "records.csv"
    records.write_text("".join(f"{n},record {n}\n" for n in range(RECORDS)))
    keys, sigs, commits = tmp_path / "keys", tmp_path / "sigs", tmp_path / "commits"
    assert cli.main(["keygen", "--scheme", scheme, "--ids", str(ids), "--J", "8", "--J1", "2",
                     "--t", "64", "--k", "8", "--L", str(BATCH), "--out", str(keys)]) == 0
    store = keyfiles.load_store(keys / "cco.store")
    blobs = store.batch_export(msg_type, bytes.fromhex(SIGNER), 1, units)
    keyfiles.save_commitments(commits, blobs)

    verify = ["verify", "--pub", str(keys / "verifier.pub"), "--in", str(records),
              "--sigs", str(sigs)]
    with tracer.recording():
        assert cli.main(["sign", "--key", str(keys / f"signer_{SIGNER}.key"),
                         "--in", str(records), "--out", str(sigs)]) == 0
        assert cli.main([*verify, "--commits", str(commits)]) == 0

    recorded = tracer.by_name()
    assert len(recorded["cli.sign"]) == len(recorded["cli.verify"]) == 1
    for name in sign_names + verify_names:
        assert len(recorded.get(name, [])) == units, name

    tracer.spans.clear()
    with transport.CcoServer(store) as server, tracer.recording():
        assert cli.main([*verify, "--cco", f"127.0.0.1:{server.port}"]) == 0
    recorded = tracer.by_name()
    assert len(recorded["cli.verify"]) == 1
    for name in verify_names:
        assert len(recorded.get(name, [])) == units, name
    assert "hy.verify_batch" not in recorded
