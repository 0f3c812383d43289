"""In-process span tracer for the layers of ``hases``.

The tracer wraps, from outside the package, the public functions of
each ``hases`` module (the layers: group, pq, la, hy, cco, keyfiles,
stream, cli) and keeps one span per call in memory: id, name, start,
end, parent span, thread and the hash calls made while it ran.  Spans
are only recorded inside ``Tracer.recording()``; outside it a wrapped
function costs one flag test.

``hashing.domain_hash`` is not wrapped: ``pq``, ``la`` and ``hy`` bind
it at import time, so a wrapper would miss their calls.  Hash work is
read from ``hashing.counters`` instead, both per span and per phase.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from hases import cco, cli, group, hashing, hy, keyfiles, la, pq, stream

_GROUP_OPS = ("exp", "mul", "decode_element", "encode_element")
_CODECS = ("to_bytes", "from_bytes")

# (layer, owner, attribute names): every callable the tracer wraps
_TARGETS = (
    ("group", group.Edwards25519Group, _GROUP_OPS),
    ("group", group.ModPGroup, _GROUP_OPS),
    ("pq", pq, ("keygen", "sign", "verify", "construct_commitment")),
    ("pq", pq.PqSignature, _CODECS),
    ("pq", pq.PqCommitment, _CODECS),
    ("la", la, ("keygen", "sign_batch", "verify_batch", "construct_commitment")),
    ("la", la.LaSignature, _CODECS),
    ("la", la.LaCommitment, _CODECS),
    ("hy", hy, ("keygen", "sign_batch", "verify_batch", "nest")),
    ("hy", hy.HySignature, _CODECS),
    ("hy", hy.HyCommitment, _CODECS),
    ("cco", cco.CcoStore, ("handle_request", "pq_commitment", "la_commitment",
                           "hy_commitment", "batch_export")),
    ("cco", cco.CcoClient, ("__init__", "request_raw")),
    ("keyfiles", keyfiles, ("signer_key_bytes", "signer_key_from_bytes",
                            "save_signer_key", "load_signer_key",
                            "save_verifier_bundle", "load_verifier_bundle",
                            "store_bytes", "store_from_bytes", "save_store", "load_store",
                            "save_signatures", "load_signatures",
                            "save_commitments", "load_commitments")),
    ("keyfiles", keyfiles.VerifierBundle, _CODECS),
    ("stream", stream, ("read_stream", "read_csv_stream", "read_binary_stream",
                        "into_batches")),
    ("cli", cli, ("main", "cmd_keygen", "cmd_sign", "cmd_verify", "cmd_request")),
)


def _span_name(layer: str, owner, attr: str):
    """Span name, or a function of the call's arguments that returns it."""
    if layer == "group" and attr == "exp":
        # the fixed-base (generator table) and variable-base paths cost
        # an order of magnitude apart, so they are separate spans
        return lambda args: "group.exp_fixed" if args[1] == args[0].generator else "group.exp_var"
    if layer == "group":
        return f"group.{attr}"
    if isinstance(owner, type):
        return f"{layer}.{owner.__name__}.{attr}"
    return f"{layer}.{attr.removeprefix('cmd_')}"


class Tracer:
    """Wraps the layers while installed; records spans while recording."""

    def __init__(self):
        # (id, name, start_ns, end_ns, parent_id, thread_id, hash_calls)
        self.spans: list[tuple] = []
        self._recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []

    def install(self) -> None:
        for layer, owner, attrs in _TARGETS:
            for attr in attrs:
                raw = owner.__dict__[attr]
                name = _span_name(layer, owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def recording(self):
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    def _wrap(self, name, fn):
        tracer = self
        counters = hashing.counters
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            label = name(args) if callable(name) else name
            hashes = counters.total()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, label, start, end, parent, threading.get_ident(),
                     counters.total() - hashes)
                )

        return traced

    def by_name(self) -> dict[str, list[tuple[int, int, int]]]:
        """Span name -> [(duration_ns, self_ns, hash_calls)] per call.

        A span's self time is its duration minus that of its child
        spans; children run on the parent's thread, inside its interval.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(list)
        for span_id, name, start, end, _, _, hashes in self.spans:
            duration = end - start
            out[name].append((duration, duration - child_ns[span_id], hashes))
        return out

    def dump(self, path) -> None:
        fields = ["id", "name", "start_ns", "end_ns", "parent", "thread", "hash_calls"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": sorted(self.spans)}, handle,
                      separators=(",", ":"))
