"""Hardware-assisted efficient signatures.

Three schemes share one deployment model: signers hold only small
evolving secrets, verifiers fetch per-epoch public commitments from a
commitment-oracle service that alone holds the master keys.

* ``hases.pq`` -- forward-secure hash-based signatures (quantum-safe
  assumptions: one-way hash functions only).
* ``hases.la`` -- single-signer aggregate signatures over a prime-order
  group: one constant-size tag per message batch, no group operations
  on the signer.
* ``hases.hy`` -- hybrid of the two via nested digests: aggregate
  compactness under a forward-secure, hash-based umbrella.
* ``hases.cco`` -- the commitment service: the store, its request
  table and the wire encodings, without I/O.
* ``hases.transport`` -- the service's framing and its TCP server and
  client; only the commands that open a socket import it.

Import the submodules by name; the package itself loads none of them.
"""

__version__ = "0.1.0"
