"""Benchmark of the hases stack: signer, verifier and commitment service.

    python3 perfbench/run.py --workload pq-online --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program under test is the
``hases`` package in ``src/``, and the run fails without it.  Workloads
(see ``workloads.py``): ``pq-online`` and ``hy-shared-online``.

With ``--trace 0`` one untraced pass of ``--seconds`` reports the
end-to-end metrics, scaled to a reference machine speed (see
``Pass._summarise`` in ``workloads.py``).  With ``--trace 1`` an
untraced pass is followed by a traced one, each of half the time, and
the per-layer metrics come from the traced pass's spans and hash
counts, together with the tracing overhead (traced minus untraced
end-to-end values).  Per-layer times are means per call, as timed,
unless noted at ``LAYER_UNITS``; ``.calls`` are means per round of the
traced pass; ``self_ms.<layer>`` is a layer's total self time in that
pass.  Metrics of a layer the workload does not exercise read 0.  In
``hy-shared-online`` two verifier threads share the interpreter lock,
so span times there include waits for it.

The last line of standard output is the result object; the line before
it carries run metadata (CPU count, Python version, commit, seed, rounds
and sample counts, exact hash-call counts for those rounds, and the
end-to-end figures both scaled and as timed, with the speed factor).  The full report, and the spans of a
traced run, are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 8

# the modules of hases whose calls the tracer records as spans
LAYERS = ("group", "pq", "la", "hy", "cco", "keyfiles", "stream", "cli")

E2E_UNITS = {
    "setup_s": "s",
    "sign_records_per_s": "records/s",
    "verify_records_per_s": "records/s",
    "cco_requests_per_s": "req/s",
    "cco_latency_p50_ms": "ms",
    "cco_latency_p80_ms": "ms",
    "server_peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "hashing.calls_per_record": "count",  # while signing
    "hashing.verify_calls_per_record": "count",
    "hashing.calls_per_request.pq": "count",
    "hashing.calls_per_request.hy": "count",
    "group.exp_var.calls": "count",
    "group.exp_var.ms": "ms",
    "group.exp_fixed.calls": "count",
    "group.exp_fixed.ms": "ms",
    "group.decode_element.calls": "count",
    "group.decode_element.ms": "ms",
    "group.mul.calls": "count",
    "pq.sign.us": "us",
    "pq.verify.us": "us",
    "pq.construct_commitment.ms": "ms",
    "pq.construct_commitment.hash_calls": "count",
    "la.sign_batch.us": "us",
    "la.verify_batch.ms": "ms",
    "la.construct_commitment.ms": "ms",
    "hy.sign_batch.us": "us",
    "hy.verify_batch.ms": "ms",
    "cco.build_ms.pq": "ms",
    "cco.build_ms.hy": "ms",
    "cco.round_trip_ms": "ms",  # median over the probe requests
    "cco.transport_ms": "ms",  # median of round trip minus the replayed build
    "cco.response_bytes": "bytes",
    "cco.requests": "count",  # total over the traced pass
    "cco.not_ok": "count",
    "keyfiles.ms": "ms",  # keyfiles self time per CLI command
    "stream.read_stream.ms": "ms",
    "cli.sign.self_ms": "ms",
    "cli.verify.self_ms": "ms",
    "error_ratio": "ratio",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    **{f"trace_overhead.{name}": unit for name, unit in E2E_UNITS.items()},
}


def layer_metrics(bench, traced, tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from workloads import MSG_TYPES
    from hases import cco

    spans = tracer.by_name()

    def mean(name, index=0, scale=1e-6):
        calls = spans.get(name, [])
        return sum(call[index] for call in calls) * scale / len(calls) if calls else 0.0

    def mean_of(values):
        return statistics.fmean(values) if values else 0.0

    values = {
        "hashing.calls_per_record": traced.hash_counts["sign"] / traced.signed_records,
        "hashing.verify_calls_per_record": traced.hash_counts["verify"] / traced.verified_records,
    }
    for scheme, msg_type in MSG_TYPES.items():
        payloads = [p for p in traced.build_s if p[0] == msg_type]
        values[f"hashing.calls_per_request.{scheme}"] = mean_of(
            [traced.replay_hashes[p] for p in payloads])
        values[f"cco.build_ms.{scheme}"] = mean_of([traced.build_s[p] * 1e3 for p in payloads])
    for op in ("exp_var", "exp_fixed", "decode_element"):
        values[f"group.{op}.calls"] = len(spans.get(f"group.{op}", [])) / traced.rounds
        values[f"group.{op}.ms"] = mean(f"group.{op}")
    values["group.mul.calls"] = len(spans.get("group.mul", [])) / traced.rounds
    values.update({
        "pq.sign.us": mean("pq.sign", scale=1e-3),
        "pq.verify.us": mean("pq.verify", scale=1e-3),
        "pq.construct_commitment.ms": mean("pq.construct_commitment"),
        "pq.construct_commitment.hash_calls": mean("pq.construct_commitment", 2, 1),
        "la.sign_batch.us": mean("la.sign_batch", scale=1e-3),
        "la.verify_batch.ms": mean("la.verify_batch"),
        "la.construct_commitment.ms": mean("la.construct_commitment"),
        "hy.sign_batch.us": mean("hy.sign_batch", scale=1e-3),
        "hy.verify_batch.ms": mean("hy.verify_batch"),
        "stream.read_stream.ms": mean("stream.read_stream"),
        "cli.sign.self_ms": mean("cli.sign", 1),
        "cli.verify.self_ms": mean("cli.verify", 1),
    })
    probe = traced.probe
    ok = cco.STATUS_OK
    values.update({
        "cco.round_trip_ms": statistics.median(lat for _, lat, _ in probe) * 1e3,
        "cco.transport_ms": statistics.median(
            (lat - traced.build_s[payload]) * 1e3 for payload, lat, _ in probe),
        "cco.response_bytes": statistics.fmean(reply.size for _, _, reply in probe),
        "cco.requests": len(probe),
        "cco.not_ok": sum(1 for _, _, reply in probe if reply.head[1:2] != bytes((ok,))),
    })
    layer_self_ns = dict.fromkeys(LAYERS, 0)
    for name, calls in spans.items():
        layer_self_ns[name.split(".")[0]] += sum(call[1] for call in calls)
    for layer, total in layer_self_ns.items():
        values[f"self_ms.{layer}"] = total / 1e6
    cli_calls = len(spans.get("cli.main", []))
    values["keyfiles.ms"] = layer_self_ns["keyfiles"] / 1e6 / cli_calls if cli_calls else 0.0
    values["error_ratio"] = bench.failed / bench.attempted
    return values


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pq-online", "hy-shared-online"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload in about a second, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the service is stopped and the work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hases" / "__init__.py").is_file():
        print(f"error: no hases package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hases
    if Path(hases.__file__).resolve().parent != (SRC / "hases").resolve():
        print(f"error: imported hases from {hases.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import TINY, WORKLOADS, Bench, ThreadOutput

    shape = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    # a traced run splits its time between its two passes
    seconds = args.seconds / (1 + args.trace)
    rounds = (MIN_ROUNDS, max(MIN_ROUNDS, math.ceil(seconds * shape.max_rounds_per_s)))
    if args.size == "tiny":
        rounds = (2, 2)  # always the same work, so the hash counts repeat exactly
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    real_stdout, real_stderr = sys.stdout, sys.stderr
    output = ThreadOutput(real_stderr)
    bench = Bench(args.workload, args.seed, seconds, rounds, shape, workdir, SRC, output)
    tracer = None
    sys.stdout = sys.stderr = output
    try:
        plain = bench.run_pass("plain")
        passes = {"plain": plain}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes["traced"] = bench.run_pass("traced", tracer)
            finally:
                tracer.uninstall()
    finally:
        sys.stdout, sys.stderr = real_stdout, real_stderr
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced = passes["traced"]
        values = layer_metrics(bench, traced, tracer)
        for name, value in plain.e2e.items():
            values[f"trace_overhead.{name}"] = traced.e2e[name] - value
        units = LAYER_UNITS
        tracer.dump(stem.with_name(stem.name + "-spans.json"))
    else:
        values, units = plain.e2e, E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "rounds": {name: p.rounds for name, p in passes.items()},
        "signers": len(bench.inputs.ids),
        "probe_signers": len(bench.inputs.probe_ids),
        "backend": os.environ.get("HASES_BACKEND", "production"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "samples": {name: p.samples for name, p in passes.items()},
        "hash_counts": {name: p.hash_counts for name, p in passes.items()},
        "end_to_end": {name: p.e2e for name, p in passes.items()},
        "end_to_end_raw": {name: p.raw_e2e for name, p in passes.items()},
        "speed": {name: p.speed for name, p in passes.items()},
        "tamper_rejected": {name: p.tamper_rejected for name, p in passes.items()},
        "failures": bench.failures,
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result,
                   "series": {name: p.series for name, p in passes.items()}}, handle)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
