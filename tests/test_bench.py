import os
import re
import subprocess
import sys

import pytest

from conftest import BENCH, bench_layers
from hases import pq
from hases.group import production_group, small_test_group

bench = bench_layers()

PQ_SMALL = pq.PqParams(t=64, k=8, j1=2, j2=16)


def test_pq_hash_counts_exactly_reproducible():
    first = bench.bench_pq(PQ_SMALL, trials=4)
    second = bench.bench_pq(PQ_SMALL, trials=4)
    counts_a = {op.name: op.hash_calls for op in first.ops}
    counts_b = {op.name: op.hash_calls for op in second.ops}
    assert counts_a == counts_b
    assert counts_a["sign"] == 1 + PQ_SMALL.k + 1
    # the primitive comes first: one H0 call
    assert first.ops[0].name == "domain_hash" and counts_a["domain_hash"] == 1


def test_pq_report_carries_policy_and_sizes():
    report = bench.bench_pq(PQ_SMALL, trials=2)
    assert report.params["policy.j1"] == 2
    assert report.params["policy.anchor_bytes_per_signer"] == 32
    assert report.sizes["signature.payload_bytes"] == PQ_SMALL.k * 32
    lines = report.machine_lines()
    assert "scheme=pq" in lines
    assert any(line.startswith("pq.sign.hash_calls=") for line in lines)
    assert "operation" in report.table()


def test_la_report_on_tiny_group():
    report = bench.bench_la(small_test_group(), max_batches=8, batch_size=2, trials=3)
    counts = {op.name: op.hash_calls for op in report.ops}
    # per-batch seed + nonce seed, then per item: item seed, nonce, challenge
    # (modulo deterministic zero-scalar retries, absent for these inputs)
    assert counts["sign_batch"] >= 2 + 3 * 2
    assert report.sizes["signature.total_bytes"] == 89
    # the verifier's per-key table is its own row, built and then loaded
    # from a table file, ahead of the checks it serves
    names = [op.name for op in report.ops]
    assert names.index("precompute_per_key") == names.index("verify_batch") - 2
    assert names.index("load_table_per_key") == names.index("verify_batch") - 1
    # a combined check over 16 batches: its seed and 16 weights
    assert names[-2:] == ["combined_check", "combined_build"]
    assert counts["combined_check"] == 1 + bench.COMBINED_BATCHES
    assert counts["precompute_per_key"] == 0  # group work only, no hashing
    assert counts["load_table_per_key"] == 0  # the bundle digest is no domain hash
    assert "la.precompute_per_key.wall_us=" in "\n".join(report.machine_lines())
    assert "la.load_table_per_key.wall_us=" in "\n".join(report.machine_lines())


def test_hy_report_combines_layers():
    report = bench.bench_hy(PQ_SMALL, small_test_group(), batch_size=2, trials=2)
    counts = {op.name: op.hash_calls for op in report.ops}
    assert counts["nest"] == 2 * 2 - 1
    assert counts["sign_batch"] > 18  # wrapper layer plus aggregate layer
    assert counts["precompute_per_key"] == counts["load_table_per_key"] == 0
    names = [op.name for op in report.ops]
    assert names.index("precompute_per_key") + 1 == names.index("load_table_per_key") == (
        names.index("verify_batch") - 1)
    assert report.sizes["signature.payload_bytes"] == 64 + PQ_SMALL.k * 32


@pytest.mark.parametrize("params, epochs, anchors", [
    (PQ_SMALL, 16, 0),  # RUN_EPOCHS of segment 0
    (pq.PqParams(t=64, k=8, j1=4, j2=4), 16, 3),  # the anchors at epochs 5, 9 and 13 end a walk
    (pq.PqParams(t=64, k=32, j1=1, j2=32), 8, 0),  # 256 // k epochs
    (pq.PqParams(t=64, k=8, j1=1, j2=4), 4, 0),  # J epochs
    (pq.PqParams(t=2, k=256, j1=1, j2=8), 1, 0),  # one epoch: the last trial walks from H0 too
], ids=["segment-0", "across-anchors", "256-over-k", "J", "one-epoch"])
def test_run_opening_row_at_every_trial_count(params, epochs, anchors):
    # one opening over epochs 1..n: H0 for the first seed, one chain step
    # per further epoch but where an anchor starts its segment, 2k per epoch
    for trials in (1, 2, 4):
        counts = {op.name: op.hash_calls for op in bench.bench_pq(params, trials=trials).ops}
        assert counts["open_run"] == 1 + (epochs - 1 - anchors) + 2 * params.k * epochs


def test_trial_count_bounded_by_epochs():
    with pytest.raises(ValueError):
        bench.bench_pq(PQ_SMALL, trials=PQ_SMALL.epochs + 1)
    with pytest.raises(ValueError):
        bench.bench_pq(PQ_SMALL, trials=0)


@pytest.mark.parametrize("trials", [1, 2, 7])
def test_every_row_reports_its_spread_beside_the_mean(trials):
    report = bench.bench_pq(PQ_SMALL, trials=trials)
    lines = dict(line.split("=", 1) for line in report.machine_lines())
    for op in report.ops:
        q1, median, q3 = op.quartiles_us
        assert 0 < q1 <= median <= q3
        # the mean keeps its key; the quartiles sit beside it
        prefix = f"pq.{op.name}."
        assert float(lines[prefix + "wall_us"]) == pytest.approx(op.wall_us, abs=0.01)
        assert [float(lines[prefix + key]) for key in
                ("wall_us_q1", "wall_us_median", "wall_us_q3")] == pytest.approx(
                    op.quartiles_us, abs=0.01)
    if trials == 1:  # one timing: every quartile is that timing, and so is the mean
        sign = next(op for op in report.ops if op.name == "sign")
        assert sign.quartiles_us == (sign.wall_us,) * 3
    row = rf"^  sign +{PQ_SMALL.k + 2}( +[\d.]+){{4}}$"  # hash calls, mean, q1, median, q3
    assert re.search(row, report.table(), re.M)


def test_open_commitment_rows_beside_the_full_build():
    report = bench.bench_pq(PQ_SMALL, trials=2)
    counts = {op.name: op.hash_calls for op in report.ops}
    # worst case of segment one: H0 for the first seed, a walk of j2 - 1 steps, then 2k or 2t
    walk = 1 + PQ_SMALL.j2 - 1
    assert counts["open_commitment"] == walk + 2 * PQ_SMALL.k
    assert counts["commitment_worst_case"] == walk + 2 * PQ_SMALL.t
    # one opening over epochs 1..16 through a store: H0, 15 chain steps, 2k per epoch
    assert counts["open_run"] == 1 + 15 + 2 * PQ_SMALL.k * bench.RUN_EPOCHS
    names = [op.name for op in report.ops]
    assert names.index("open_run") == names.index("open_commitment") + 1
    assert report.sizes["opening_bytes"] == 25 + PQ_SMALL.k * 32
    assert report.sizes["commitment.total_bytes"] == 25 + PQ_SMALL.t * 32
    assert "pq.open_commitment.wall_us=" in "\n".join(report.machine_lines())

    hy_report = bench.bench_hy(PQ_SMALL, small_test_group(), batch_size=2, trials=2)
    hy_counts = {op.name: op.hash_calls for op in hy_report.ops}
    # what the service builds for an online hy unit: the 0x05 opening of its
    # pq part at epoch 2 (H0 for the first seed, one step, then 2k), no more
    assert hy_counts["open_commitment"] == 2 + 2 * PQ_SMALL.k
    assert hy_report.sizes["opening_bytes"] == 25 + PQ_SMALL.k * 32


def test_load_table_row_on_the_production_group():
    # a 16 KB table read from a file; the digest binding the file to its
    # bundle is hashlib's, not a domain hash, so the row counts no hash
    report = bench.bench_la(production_group(), max_batches=2, batch_size=1, trials=1)
    counts = {op.name: op.hash_calls for op in report.ops}
    assert counts["load_table_per_key"] == 0
    assert [name for name in counts if "table" in name or "precompute" in name] == [
        "generator_table", "exp_table", "precompute_per_key", "load_table_per_key"]


@pytest.mark.parametrize("scheme", ["la", "hy"])
def test_group_rows_come_first_and_hash_nothing(scheme):
    # the generator's comb built on a fresh group, one fixed-base
    # exponentiation and one walk of a key's table, ahead of every scheme row
    def report(group):
        if scheme == "la":
            return bench.bench_la(group, max_batches=4, batch_size=1, trials=3)
        return bench.bench_hy(PQ_SMALL, group, batch_size=2, trials=3)

    production = report(production_group())
    rows = ["generator_table", "exp_fixed", "exp_table"]
    assert [op.name for op in production.ops[:3]] == rows
    assert all(op.hash_calls == 0 and 0 < op.quartiles_us[0] for op in production.ops[:3])
    lines = production.machine_lines()
    for row in rows:
        assert f"{scheme}.{row}.hash_calls=0" in lines
        for key in ("wall_us", "wall_us_q1", "wall_us_median", "wall_us_q3"):
            assert any(line.startswith(f"{scheme}.{row}.{key}=") for line in lines)
    # the tiny group has no comb to build: the two exponentiation rows only
    tiny = report(small_test_group())
    assert [op.name for op in tiny.ops[:2]] == rows[1:]
    assert "generator_table" not in {op.name for op in tiny.ops}


def test_pq_sign_hash_count_reported(capsys):
    code = bench.main(["--scheme", "pq", "--trials", "8", "--J2", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pq.sign.hash_calls=18" in out
    assert "pq.signature.payload_bytes=512" in out


def test_la_report_lines(capsys, monkeypatch):
    monkeypatch.setenv("HASES_BACKEND", "tiny")
    code = bench.main(["--scheme", "la", "--trials", "4", "--L", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "la.signature.payload_bytes=64" in out
    assert re.search(r"la\.sign_batch\.hash_calls=\d+", out)


def test_the_script_runs_from_a_checkout():
    # as CI runs it: the package on PYTHONPATH, the script by its path
    def run(*argv):
        return subprocess.run([sys.executable, str(BENCH / "layers.py"), *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(BENCH.parent / "src")})

    proc = run("--scheme", "pq", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert "pq.sign.hash_calls=18" in proc.stdout.splitlines()
    proc = run("--no-such-flag")
    assert proc.returncode == 2
    assert proc.stdout == "" and "usage: layers.py " in proc.stderr
