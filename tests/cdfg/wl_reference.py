"""Frozen replica of the per-group Weisfeiler-Lehman loop.

The differential oracle for :meth:`repro.cdfg.ir.Graph.canonical_node_keys`:
a literal copy of the loop as it stood before each round became one
sorted byte join per node.  Every round hashes a node's own signature,
then its six neighbour groups one ``update`` per edge, each group sorted
on its own: data inputs by ``(port, signature)``, data users by
``(port, signature)``, guards and guarded nodes by ``(polarity,
signature)``, order predecessors and successors by signature.
``test_wl_reference.py`` asserts that the production loop returns the
same bytes, and so the same design keys and run-store keys.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cdfg.ir import Graph, _digest

__all__ = ["reference_node_keys"]


def reference_node_keys(graph: Graph, rounds: Optional[int] = None
                        ) -> Dict[int, bytes]:
    """What ``graph.canonical_node_keys(rounds)`` returned before the
    one-pass rounds."""
    self = graph
    sig: Dict[int, bytes] = {}
    for nid, n in self.nodes.items():
        sig[nid] = _digest(
            f"{n.kind.value}|{n.value!r}|{n.var!r}|{n.array!r}"
            .encode()).digest()
    cap = rounds if rounds is not None else 8
    n_classes = len(set(sig.values()))
    cin, cout = self._cin.get, self._cout.get
    oin, oout = self._oin.get, self._oout.get
    for _ in range(cap):
        nxt: Dict[int, bytes] = {}
        for nid in self.nodes:
            h = _digest(sig[nid])
            for p, s in sorted((p, sig[s]) for p, s
                               in self._din[nid].items()):
                h.update(b"\x01" + p.to_bytes(2, "big") + s)
            for p, s in sorted((p, sig[d]) for d, p
                               in self._dout[nid]):
                h.update(b"\x02" + p.to_bytes(2, "big") + s)
            for pol, s in sorted((pol, sig[s]) for s, pol
                                 in cin(nid, ())):
                h.update(b"\x03" + bytes([pol]) + s)
            for pol, s in sorted((pol, sig[d]) for d, pol
                                 in cout(nid, ())):
                h.update(b"\x04" + bytes([pol]) + s)
            for s in sorted(sig[s] for s in oin(nid, ())):
                h.update(b"\x05" + s)
            for s in sorted(sig[d] for d in oout(nid, ())):
                h.update(b"\x06" + s)
            nxt[nid] = h.digest()
        sig = nxt
        classes = len(set(sig.values()))
        if classes == n_classes:
            break  # partition stable: further rounds cannot refine
        n_classes = classes
    return sig
