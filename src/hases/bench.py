"""Signer-cost and size measurements.

Hash-call figures come straight from the instrumented counters in
``hashing`` and are exact; wall-clock numbers are mean microseconds
over the requested trial count and carry the usual noise.  Reports
render both as an aligned human table and as line-oriented ``key=value``
pairs so harnesses can diff them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import cco, hy, la, pq
from .group import PrimeOrderGroup, production_group
from .hashing import counters


@dataclass
class OpStats:
    name: str
    hash_calls: int
    wall_us: float


@dataclass
class BenchReport:
    scheme: str
    params: dict[str, object] = field(default_factory=dict)
    ops: list[OpStats] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)

    def machine_lines(self) -> list[str]:
        lines = [f"scheme={self.scheme}"]
        lines += [f"{key}={value}" for key, value in self.params.items()]
        for op in self.ops:
            lines.append(f"{self.scheme}.{op.name}.hash_calls={op.hash_calls}")
            lines.append(f"{self.scheme}.{op.name}.wall_us={op.wall_us:.2f}")
        lines += [f"{self.scheme}.{key}={value}" for key, value in self.sizes.items()]
        return lines

    def table(self) -> str:
        rows = [f"scheme: {self.scheme}"]
        rows += [f"  {key} = {value}" for key, value in self.params.items()]
        rows.append(f"  {'operation':<28} {'hash calls':>10} {'wall (us)':>12}")
        for op in self.ops:
            rows.append(f"  {op.name:<28} {op.hash_calls:>10} {op.wall_us:>12.2f}")
        for key, value in self.sizes.items():
            rows.append(f"  {key:<28} {value:>10} bytes")
        return "\n".join(rows)


def _measure(fn, trials: int) -> tuple[int, float, object]:
    """Run ``fn(trial_index)`` ``trials`` times; exact hash count of the
    last run, mean wall time, and the last return value."""
    result = None
    start = time.perf_counter()
    for index in range(trials - 1):
        fn(index)
    counters.reset()
    result = fn(trials - 1)
    calls = counters.total()
    elapsed = time.perf_counter() - start
    return calls, elapsed / trials * 1e6, result


_BENCH_ID = bytes(range(16))


def _measure_key_tables(report: BenchReport, public, group, trials: int) -> la.KeyTables:
    """Time the verifier's per-key table build as the ``precompute_per_key``
    row; return the last build's tables, warm as the CLI holds them after
    a key's first batch."""

    def build(_):
        tables = la.KeyTables(public, group)
        tables[_BENCH_ID]
        return tables

    calls, wall, tables = _measure(build, max(1, trials // 8))
    report.ops.append(OpStats("precompute_per_key", calls, wall))
    return tables


def bench_pq(params: pq.PqParams, trials: int = 32) -> BenchReport:
    if trials > params.epochs:
        raise ValueError("trial count exceeds the configured epoch count")
    report = BenchReport(
        "pq",
        params={
            "t": params.t,
            "k": params.k,
            "policy.j1": params.j1,
            "policy.j2": params.j2,
            "policy.anchor_bytes_per_signer": (params.j1 - 1) * 32,
            "trials": trials,
        },
    )
    states = materials = None

    def do_keygen(_):
        nonlocal states, materials
        states, materials = pq.keygen([_BENCH_ID], params)
        return states

    calls, wall, _ = _measure(do_keygen, max(1, trials // 8))
    report.ops.append(OpStats("keygen_per_signer", calls, wall))

    state = states[_BENCH_ID]
    messages = [b"bench message %08d" % i for i in range(trials)]
    calls, wall, signature = _measure(lambda i: pq.sign(state, messages[i]), trials)
    report.ops.append(OpStats("sign", calls, wall))

    # worst-case chain walk within a segment: last epoch of segment one
    worst_epoch = min(params.j2, params.epochs)
    calls, wall, commitment = _measure(
        lambda _: pq.construct_commitment(materials, _BENCH_ID, worst_epoch), trials
    )
    report.ops.append(OpStats("commitment_worst_case", calls, wall))

    # what the service builds for an online verifier: the walk plus 2k hashes
    indices = pq.message_indices(messages[-1], params)
    calls, wall, opening = _measure(
        lambda _: pq.open_commitment(materials, _BENCH_ID, worst_epoch, indices), trials
    )
    report.ops.append(OpStats("open_commitment", calls, wall))

    # an online verifier's chunk: epochs 1, 2, ... through a store, whose
    # chain cursor makes each opening after the first one step plus 2k
    # hashes (2k alone where an anchor starts the epoch's segment)
    store = cco.CcoStore()
    store.provision(materials)
    calls, wall, _ = _measure(
        lambda i: store.pq_opening(_BENCH_ID, i + 1, indices), trials
    )
    report.ops.append(OpStats("open_commitment_sequential", calls, wall))

    last = pq.construct_commitment(materials, _BENCH_ID, signature.epoch)
    calls, wall, ok = _measure(
        lambda _: pq.verify(last, messages[-1], signature, params), trials
    )
    assert ok
    report.ops.append(OpStats("verify", calls, wall))

    report.sizes["signature.payload_bytes"] = params.k * 32
    report.sizes["signature.total_bytes"] = len(signature.to_bytes())
    report.sizes["commitment.total_bytes"] = len(commitment.to_bytes())
    report.sizes["opening_bytes"] = len(opening.to_bytes())
    return report


def bench_la(
    group: PrimeOrderGroup | None = None,
    max_batches: int = 1024,
    batch_size: int = 8,
    trials: int = 32,
) -> BenchReport:
    group = group or production_group()
    if trials > max_batches:
        raise ValueError("trial count exceeds the configured batch count")
    report = BenchReport(
        "la",
        params={"L": batch_size, "J": max_batches, "trials": trials},
    )
    states = public = material = None

    def do_keygen(_):
        nonlocal states, public, material
        states, public, material = la.keygen([_BENCH_ID], group, max_batches, batch_size)

    group.exp(group.generator, 1)  # one-time build of the generator table, untimed
    calls, wall, _ = _measure(do_keygen, max(1, trials // 8))
    report.ops.append(OpStats("keygen_per_signer", calls, wall))

    state = states[_BENCH_ID]
    batch = [b"bench item %08d" % i for i in range(batch_size)]
    calls, wall, signature = _measure(lambda _: la.sign_batch(state, batch), trials)
    report.ops.append(OpStats("sign_batch", calls, wall))

    epoch = signature.epoch
    calls, wall, commitment = _measure(
        lambda _: la.construct_commitment(material, _BENCH_ID, epoch), trials
    )
    report.ops.append(OpStats("commitment", calls, wall))

    # the CLI's check: the commitment parsed from the bytes it arrives as
    tables = _measure_key_tables(report, public, group, trials)
    blob = commitment.to_bytes()
    calls, wall, ok = _measure(
        lambda _: la.verify_batch(
            tables[_BENCH_ID], la.LaCommitment.from_bytes(blob), batch, signature, group
        ),
        trials,
    )
    assert ok
    report.ops.append(OpStats("verify_batch", calls, wall))

    report.sizes["signature.payload_bytes"] = 64
    report.sizes["signature.total_bytes"] = len(signature.to_bytes())
    report.sizes["commitment.total_bytes"] = len(blob)
    return report


def bench_hy(
    pq_params: pq.PqParams,
    group: PrimeOrderGroup | None = None,
    batch_size: int = 8,
    trials: int = 32,
) -> BenchReport:
    group = group or production_group()
    if trials > pq_params.epochs:
        raise ValueError("trial count exceeds the configured epoch count")
    report = BenchReport(
        "hy",
        params={
            "L": batch_size,
            "J": pq_params.epochs,
            "t": pq_params.t,
            "k": pq_params.k,
            "policy.j1": pq_params.j1,
            "trials": trials,
        },
    )
    states, public, material = hy.keygen([_BENCH_ID], group, batch_size, pq_params)
    state = states[_BENCH_ID]
    batch = [b"bench item %08d" % i for i in range(batch_size)]

    calls, wall, signature = _measure(lambda _: hy.sign_batch(state, batch), trials)
    report.ops.append(OpStats("sign_batch", calls, wall))

    epoch = signature.la.epoch
    commitment = hy.HyCommitment(
        la.construct_commitment(material.la, _BENCH_ID, epoch),
        pq.construct_commitment(material.pq, _BENCH_ID, epoch),
    )
    indices = hy.opened(batch, signature, pq_params).indices
    calls, wall, opening = _measure(
        lambda _: hy.open_commitment(material, _BENCH_ID, epoch, indices), trials
    )
    report.ops.append(OpStats("open_commitment", calls, wall))

    # the online CLI's check: the opening parsed from the bytes it arrives as
    tables = _measure_key_tables(report, public, group, trials)
    blob = opening.to_bytes()
    calls, wall, ok = _measure(
        lambda _: hy.verify_batch(
            tables[_BENCH_ID], hy.HyOpening.from_bytes(blob, indices), batch, signature,
            group, pq_params,
        ),
        trials,
    )
    assert ok
    report.ops.append(OpStats("verify_batch", calls, wall))

    report.sizes["signature.payload_bytes"] = 64 + pq_params.k * 32
    report.sizes["signature.total_bytes"] = len(signature.to_bytes())
    report.sizes["commitment.total_bytes"] = len(commitment.to_bytes())
    report.sizes["opening_bytes"] = len(blob)
    return report
