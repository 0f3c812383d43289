"""Signer-cost and size measurements of each layer, one scheme per run.

    PYTHONPATH=src python bench/layers.py --scheme {pq,la,hy} [--trials N]

Hash-call figures come straight from the instrumented counters in
``hashing`` and are exact.  Each trial is timed on its own: a row's
``wall_us`` is the mean microseconds over the requested trial count,
and its quartiles (``wall_us_q1``, ``wall_us_median``, ``wall_us_q3``)
show the spread beside it.  Reports render both as an aligned human
table and as line-oriented ``key=value`` pairs so harnesses can diff
them.  ``HASES_BACKEND`` selects the group of the la and hy runs, as
for ``hases keygen``.  A reader that stops early (``| head``) ends the
report quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from hases import cco, hy, keyfiles, la, pq, schemes, verifier
from hases.cli import EXIT_ERROR, EXIT_OK, backend_group
from hases.errors import HasesError
from hases.group import Edwards25519Group, PrimeOrderGroup, production_group
from hases.hashing import DOM_MESSAGE, counters, domain_hash
from hases.stream import Record


class OpStats(NamedTuple):
    name: str
    hash_calls: int
    wall_us: float  # mean over the trials
    quartiles_us: tuple[float, float, float]  # q1, median, q3 of the trials


class BenchReport(NamedTuple):
    """One scheme's report; ``_row`` appends to ``ops``, the caller fills ``sizes``."""

    scheme: str
    params: dict[str, object]
    ops: list[OpStats]
    sizes: dict[str, int]

    def machine_lines(self) -> list[str]:
        lines = [f"scheme={self.scheme}"]
        lines += [f"{key}={value}" for key, value in self.params.items()]
        for op in self.ops:
            lines.append(f"{self.scheme}.{op.name}.hash_calls={op.hash_calls}")
            lines.append(f"{self.scheme}.{op.name}.wall_us={op.wall_us:.2f}")
            for key, value in zip(("wall_us_q1", "wall_us_median", "wall_us_q3"), op.quartiles_us):
                lines.append(f"{self.scheme}.{op.name}.{key}={value:.2f}")
        lines += [f"{self.scheme}.{key}={value}" for key, value in self.sizes.items()]
        return lines

    def table(self) -> str:
        rows = [f"scheme: {self.scheme}"]
        rows += [f"  {key} = {value}" for key, value in self.params.items()]
        rows.append(f"  {'operation':<28} {'hash calls':>10} {'mean (us)':>12}"
                    f" {'q1':>10} {'median':>10} {'q3':>10}")
        for op in self.ops:
            q1, median, q3 = op.quartiles_us
            rows.append(f"  {op.name:<28} {op.hash_calls:>10} {op.wall_us:>12.2f}"
                        f" {q1:>10.2f} {median:>10.2f} {q3:>10.2f}")
        for key, value in self.sizes.items():
            rows.append(f"  {key:<28} {value:>10} bytes")
        return "\n".join(rows)


def _row(report: BenchReport, name: str, fn, trials: int):
    """Run ``fn(trial_index)`` ``trials`` times, timing each run, and add
    the row ``name`` to ``report``: the exact hash count of the last run,
    the mean and quartiles of the wall times.  Return the last run's value."""
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    clock = time.perf_counter
    times_us = []
    for index in range(trials):
        if index == trials - 1:
            counters.reset()
        start = clock()
        result = fn(index)
        times_us.append((clock() - start) * 1e6)
    calls = counters.total()
    if trials > 1:
        quartiles = tuple(statistics.quantiles(times_us, n=4, method="inclusive"))
    else:
        quartiles = (times_us[0],) * 3
    report.ops.append(OpStats(name, calls, statistics.fmean(times_us), quartiles))
    return result


_BENCH_ID = bytes(range(16))


def _measure_key_tables(report: BenchReport, public, group, trials: int) -> la.KeyTables:
    """Time the verifier's per-key table as the ``precompute_per_key`` row
    (built in the run, the key checked) and the ``load_table_per_key``
    row (read from a table file beside a bundle of the key, as ``hases
    verify`` reads it); return the last build's tables, warm as the CLI
    holds them after a key's first batch."""

    def build(_):
        tables = la.KeyTables(public, group)
        tables[_BENCH_ID]
        return tables

    tables = _row(report, "precompute_per_key", build, max(1, trials // 8))
    bundle = keyfiles.VerifierBundle(schemes.LA.tag, None, la.LaParams(group, 1, 1), public)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "verifier.pub.tables"
        path.write_bytes(keyfiles.key_tables_bytes(bundle))
        loaded = _row(report, "load_table_per_key",
                      lambda _: keyfiles.load_key_tables(path, bundle, [_BENCH_ID]), trials)
    assert group.table_bytes(loaded[_BENCH_ID]) == group.table_bytes(tables[_BENCH_ID])
    return tables


def _measure_group(report: BenchReport, group, trials: int) -> None:
    """The group rows under the aggregate ones: ``generator_table``, the
    one-time build of the generator's comb, on a fresh group each trial
    (edwards25519 only: the tiny group has no comb); ``exp_fixed``, one
    fixed-base exponentiation, and ``exp_table``, one walk of a key's
    table, each to a random scalar per trial."""
    if isinstance(group, Edwards25519Group):
        _row(report, "generator_table", lambda _: Edwards25519Group()._generator_table(), trials)
    group.exp(group.generator, 1)  # the group's own generator comb, built once and untimed
    rng = random.Random(trials)
    scalars = [rng.randrange(group.q) for _ in range(trials)]
    _row(report, "exp_fixed", lambda i: group.exp(group.generator, scalars[i]), trials)
    table = group.precompute(group.encode_element(group.exp(group.generator, scalars[0])))
    _row(report, "exp_table", lambda i: group.exp_table(table, scalars[i]), trials)


COMBINED_BATCHES = 16  # one verify chunk of one signer, as the benchmark's hy chunks


def _measure_combined(report: BenchReport, group, messages, trials: int) -> None:
    """The ``combined_check`` and ``combined_build`` rows over
    ``COMBINED_BATCHES`` aggregate tags of ``messages`` by a fresh signer:
    the verifier's side of a combined check (its seed, its weights, both
    weighted sums and one walk of the key's table; each tag's challenge
    sum is derived before, as for ``verify_batch``), and the store's
    ``0x08`` build of the same seed, response sum and epochs."""
    states, public, material = la.keygen([_BENCH_ID], group, COMBINED_BATCHES, len(messages))
    batches = []
    for epoch in range(1, COMBINED_BATCHES + 1):
        signature = la.sign_batch(states[_BENCH_ID], messages)
        batches.append((epoch, la.challenge_sum(messages, signature, group.q), signature.agg))
    tables = la.KeyTables(public, group)
    tables[_BENCH_ID]

    def check(_):
        seed = la.combination_seed(_BENCH_ID, batches)
        challenge, agg = la.weighted_sums(seed, batches, group.q)
        return seed, agg, la.combined_value(tables[_BENCH_ID], challenge, group)

    seed, agg, value = _row(report, "combined_check", check, trials)
    epochs = [epoch for epoch, _, _ in batches]
    assert value == _row(report, "combined_build", lambda _: la.combined_commitment(
        material, _BENCH_ID, seed, agg, epochs), trials)


RUN_EPOCHS = 16  # one opening request of a 64-unit pq verify chunk at k=16


class _PreparedSource(verifier.CommitmentSource):
    """``hases verify``'s online commitment source with its service
    replaced by ``replies``, the OK body prepared for each request
    payload beforehand: no socket, and no store hashing in the count."""

    def __init__(self, bundle: keyfiles.VerifierBundle, replies: dict[bytes, bytes]):
        self.scheme, self.bundle, self.client = schemes.by_tag(bundle.scheme), bundle, self
        self.replies = replies

    def ok_bodies(self, payloads):
        return map(self.replies.__getitem__, payloads)

    def close(self):
        pass  # no socket to close


def _measure_verify_run(report: BenchReport, params: pq.PqParams, epochs: int, trials: int) -> None:
    """The ``verify_run`` row: what ``hases verify --cco`` does with one run
    of a chunk, ``epochs`` signatures of a fresh signer at epochs 1 on,
    through ``verifier.verify_all``: each signature parsed, the messages
    hashed and their indices cut, the run's ``0x05`` payload made, and
    its reply, prepared here, checked unit by unit; 1 + k hashes a unit."""
    states, material = pq.keygen([_BENCH_ID], params)
    messages = [b"bench run %08d" % n for n in range(epochs)]
    records = [Record(str(n), message) for n, message in enumerate(messages)]
    blobs = [pq.sign(states[_BENCH_ID], message).to_bytes() for message in messages]
    indices = pq.run_indices(messages, params)
    reply = pq.open_commitment(material, _BENCH_ID, 1, indices).to_bytes()
    bundle = keyfiles.VerifierBundle(schemes.PQ.tag, params, None, {_BENCH_ID: None})
    source = _PreparedSource(bundle, {cco.opening_payload(_BENCH_ID, 1, indices): reply})
    assert all(_row(report, "verify_run",
                    lambda _: verifier.verify_all(bundle, records, blobs, source), trials))


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
        ops=[],
        sizes={},
    )
    data = bytes(32)  # the primitive under every row below: one H0 call on a digest-sized input
    _row(report, "domain_hash", lambda _: domain_hash(DOM_MESSAGE, data), trials)
    states = materials = None

    def do_keygen(_):
        nonlocal states, materials
        states, materials = pq.keygen([_BENCH_ID], params)
        return states

    _row(report, "keygen_per_signer", do_keygen, max(1, trials // 8))

    state = states[_BENCH_ID]
    messages = [b"bench message %08d" % i for i in range(trials)]
    signature = _row(report, "sign", lambda i: pq.sign(state, messages[i]), trials)

    # worst-case chain walk within a segment: last epoch of segment one
    worst_epoch = min(params.j2, params.epochs)
    commitment = _row(report, "commitment_worst_case",
                      lambda _: pq.construct_commitment(materials, _BENCH_ID, worst_epoch), trials)

    # what the service builds for an online verifier: the walk plus 2k hashes
    indices = pq.message_indices(messages[-1], params)
    opening = _row(report, "open_commitment",
                   lambda _: pq.open_commitment(materials, _BENCH_ID, worst_epoch, indices), trials)

    # what the service builds for a run of an online verifier's chunk: one
    # 0x05 over epochs 1..n, n = min(RUN_EPOCHS, J, 256 // k), as a store
    # with no chain cursor for the signer builds it: H0, one chain step per
    # further epoch (none where one starts a segment) and 2k hashes per
    # epoch.  No cursor is kept between trials, so every trial costs the same
    run_epochs = min(RUN_EPOCHS, params.epochs, cco.MAX_OPENING_INDICES // params.k)
    run = indices * run_epochs
    _row(report, "open_run", lambda _: pq.open_commitment(materials, _BENCH_ID, 1, run), trials)

    last = pq.construct_commitment(materials, _BENCH_ID, signature.epoch)
    assert _row(report, "verify", lambda _: pq.verify(last, messages[-1], signature, params),
                trials)
    _measure_verify_run(report, params, run_epochs, trials)

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
        ops=[],
        sizes={},
    )
    states = public = material = None

    def do_keygen(_):
        nonlocal states, public, material
        states, public, material = la.keygen([_BENCH_ID], group, max_batches, batch_size)

    _measure_group(report, group, trials)
    _row(report, "keygen_per_signer", do_keygen, max(1, trials // 8))

    state = states[_BENCH_ID]
    batch = [b"bench item %08d" % i for i in range(batch_size)]
    signature = _row(report, "sign_batch", lambda _: la.sign_batch(state, batch), trials)

    epoch = signature.epoch
    commitment = _row(report, "commitment",
                      lambda _: la.construct_commitment(material, _BENCH_ID, epoch), trials)

    # the CLI's check: the commitment parsed from the bytes it arrives as
    tables = _measure_key_tables(report, public, group, trials)
    blob = commitment.to_bytes()
    assert _row(report, "verify_batch", lambda _: la.verify_batch(
        tables[_BENCH_ID], la.LaCommitment.from_bytes(blob), batch, signature, group
    ), trials)

    _measure_combined(report, group, batch, trials)

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
        ops=[],
        sizes={},
    )
    _measure_group(report, group, trials)
    states, public, material = hy.keygen([_BENCH_ID], group, batch_size, pq_params)
    state = states[_BENCH_ID]
    batch = [b"bench item %08d" % i for i in range(batch_size)]

    # the nested vector a batch's aggregate layer signs: 2L - 1 hashes
    _row(report, "nest", lambda _: hy.nest(batch), trials)
    signature = _row(report, "sign_batch", lambda _: hy.sign_batch(state, batch), trials)

    epoch = signature.la.epoch
    commitment = hy.HyCommitment(
        la.construct_commitment(material.la, _BENCH_ID, epoch),
        pq.construct_commitment(material.pq, _BENCH_ID, epoch),
    )
    # what the service builds for one online hy unit: the 0x05 opening of
    # its pq part (the aggregate part is checked through 0x08)
    indices = hy.opened(batch, signature, pq_params).indices
    opening = _row(report, "open_commitment",
                   lambda _: pq.open_commitment(material.pq, _BENCH_ID, epoch, indices), trials)

    # the checks ``hases verify`` runs on a hy unit: its two layers apart,
    # the pq layer against the opening the service sends
    tables = _measure_key_tables(report, public, group, trials)
    bundle = keyfiles.VerifierBundle(schemes.HY.tag, pq_params,
                                     la.LaParams(group, pq_params.epochs, batch_size), public)

    def check(_):
        (nested, la_signature, challenge), (inner, pq_signature) = schemes.HY.layers(
            batch, signature, bundle)
        return la.verify_batch(
            tables[_BENCH_ID], commitment.la, nested, la_signature, group, challenge
        ) and pq.verify(opening, inner, pq_signature, pq_params,
                        pq.run_indices((inner,), pq_params))

    assert _row(report, "verify_batch", check, trials)

    # the aggregate layer of a hybrid tag signs the nested digests
    _measure_combined(report, group, hy.nest(batch), trials)

    report.sizes["signature.payload_bytes"] = 64 + pq_params.k * 32
    report.sizes["signature.total_bytes"] = len(signature.to_bytes())
    report.sizes["commitment.total_bytes"] = len(commitment.to_bytes())
    report.sizes["opening_bytes"] = len(opening.to_bytes())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measure signer costs and sizes")
    parser.add_argument("--scheme", choices=("pq", "la", "hy"), required=True)
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--t", type=int, default=1024)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--J1", type=int, default=0)
    parser.add_argument("--J2", type=int, default=0)
    parser.add_argument("--L", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        if args.scheme == "la":
            report = bench_la(backend_group(), max_batches=max(args.trials, 64),
                              batch_size=args.L or 8, trials=args.trials)
        else:
            params = pq.PqParams(t=args.t, k=args.k, j1=args.J1 or 1, j2=args.J2 or 64)
            report = (bench_pq(params, args.trials) if args.scheme == "pq"
                      else bench_hy(params, backend_group(), args.L or 8, args.trials))
    except (HasesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        print(report.table())
        print()
        for line in report.machine_lines():
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``) and has all it wants; stdout
        # is pointed at the null device, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
