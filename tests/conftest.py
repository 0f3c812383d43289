import itertools
import sys
from pathlib import Path

import pytest

from hases import pq
from hases.group import production_group


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_layers():
    """``bench/layers.py``, the layer benchmark: a script beside the
    package, not a module of it, so it is imported by its path."""
    sys.path.insert(0, str(BENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(BENCH))
    return layers


def anchored_for(material, j1: int):
    """The pq ``material``'s master key and signers with the J epochs
    split as j1 segments of J / j1: what ``hases keygen --J1 j1`` stores
    for that master key."""
    params = material.params._replace(j1=j1, j2=material.params.epochs // j1)
    anchors = {sid: pq.derive_anchors(material.msk, sid, params) for sid in material.anchors}
    return pq.PqKeyMaterial(material.msk, params, anchors)


def write_binary_stream(path, records) -> None:
    """Write ``records`` in the raw binary framing ``hases.stream`` reads:
    an 8-byte timestamp, a 4-byte payload length, the payload."""
    with open(path, "wb") as handle:
        for record in records:
            handle.write(int(record.timestamp).to_bytes(8, "big"))
            handle.write(len(record.payload).to_bytes(4, "big"))
            handle.write(record.payload)


def curve_point(y: int):
    """The edwards25519 point with this y and an even x, or None if there
    is none: x from the curve equation -x^2 + y^2 = 1 + d x^2 y^2."""
    p = production_group().p
    d = -121665 * pow(121666, -1, p) % p
    u = (y * y - 1) * pow(d * y * y + 1, -1, p) % p
    x = pow(u, (p + 3) // 8, p)
    if x * x % p != u:
        x = x * pow(2, (p - 1) // 4, p) % p
    if x * x % p != u:
        return None
    return (p - x if x & 1 else x, y)


@pytest.fixture(scope="session")
def small_order_points():
    """The 8 points of edwards25519 whose order divides 8, the identity
    first, built by the group's own arithmetic, never by decoding: [q]P
    has order 8 for a curve point P of order 8q."""
    g = production_group()
    for y in itertools.count(2):
        point = curve_point(y)
        if point is None:
            continue
        torsion = g.mul(point, g.exp(point, g.q - 1))  # [q]P; exp reduces q itself to 0
        points = [g.identity]
        for _ in range(7):
            points.append(g.mul(points[-1], torsion))
        if len(set(points)) == 8:
            return points
