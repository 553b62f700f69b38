"""Core CDFG intermediate representation.

A :class:`Graph` is a directed graph whose nodes are operations
(:class:`Node`, tagged with an :class:`~repro.cdfg.ops.OpKind`) and whose
edges come in three flavors, following the paper's CDFG model:

* **data edges** — the source produces a value the sink consumes.  Data
  inputs of a node are *ported* (port 0 is the left operand, port 1 the
  right, and so on); ``JOIN`` nodes have an arbitrary number of ports.
* **control edges** — the sink executes only if the source (a condition
  node) evaluated to the edge's polarity (the paper's ``+`` / ``-``
  annotations).
* **order edges** — pure sequencing constraints used to serialize
  accesses to the same memory; they carry no value.

Loops appear as cycles through ``JOIN`` nodes, but their structure is
recorded explicitly in a region tree (:mod:`repro.cdfg.regions`) rather
than being re-discovered, since the frontend that creates the graph knows
it.  A :class:`~repro.cdfg.regions.Behavior` bundles a graph with its
region tree and interface declarations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import CdfgError
from .ops import OpKind, info


def _digest(data: bytes = b"") -> "hashlib.blake2b":
    """A 128-bit hash (stable: independent of PYTHONHASHSEED)."""
    return hashlib.blake2b(data, digest_size=16)


@dataclass
class Node:
    """A single CDFG operation.

    Attributes:
        id: unique (per-graph) integer identity.
        kind: the operation kind.
        name: optional human-readable label (e.g. the variable assigned).
        value: constant value, for ``CONST`` nodes.
        var: interface variable name, for ``INPUT`` / ``OUTPUT`` nodes.
        array: array name, for ``LOAD`` / ``STORE`` nodes.
    """

    id: int
    kind: OpKind
    name: str = ""
    value: Optional[int] = None
    var: Optional[str] = None
    array: Optional[str] = None

    def label(self) -> str:
        """Short display label used by DOT export and error messages."""
        if self.kind is OpKind.CONST:
            return f"#{self.value}"
        if self.kind in (OpKind.INPUT, OpKind.OUTPUT):
            return f"{self.kind.value}:{self.var}"
        if self.kind in (OpKind.LOAD, OpKind.STORE):
            return f"{self.kind.value}:{self.array}"
        if self.name:
            return f"{self.kind.value}:{self.name}"
        return self.kind.value


class Graph:
    """A mutable CDFG.

    Nodes are identified by integers handed out by :meth:`add_node`.
    All iteration orders are deterministic (sorted by node id) so that
    scheduling and search results are reproducible.
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self.nodes: Dict[int, Node] = {}
        self._next_id = 0
        # data edges: dst -> {port: src}; src -> {(dst, port)}
        self._din: Dict[int, Dict[int, int]] = {}
        self._dout: Dict[int, Set[Tuple[int, int]]] = {}
        # Control and order edges are sparse: most nodes have neither,
        # so only a node that has had one gets an entry.
        # control edges: dst -> [(src, polarity)]; src -> [(dst, polarity)]
        self._cin: Dict[int, List[Tuple[int, bool]]] = {}
        self._cout: Dict[int, List[Tuple[int, bool]]] = {}
        # order edges: dst -> {src}; src -> {dst}
        self._oin: Dict[int, Set[int]] = {}
        self._oout: Dict[int, Set[int]] = {}
        # mutation journal: node ids touched by each mutating call, in
        # order.  copy() starts the copy with an empty journal, so the
        # journal of a freshly copied graph records exactly the nodes a
        # rewrite touched (the "dirty set" the macro chains follow).
        self._journal: List[int] = []

    # ------------------------------------------------------------------
    # Mutation journal
    # ------------------------------------------------------------------
    def _touch(self, *nids: int) -> None:
        self._journal.extend(nids)

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumps on every mutating call).

        Cheap way to detect "has this graph changed since I computed X"
        without hashing: the fingerprint helpers in
        :mod:`repro.core.evalcache` cache per-object keyed on this.
        """
        return len(self._journal)

    def journal_mark(self) -> int:
        """Opaque position in the journal; pair with
        :meth:`touched_since`."""
        return len(self._journal)

    def touched_since(self, mark: int) -> Set[int]:
        """Node ids touched by mutations after ``mark`` (including ids
        of nodes created or removed since)."""
        return set(self._journal[mark:])

    def touch(self, *nids: int) -> None:
        """Record an out-of-band semantic change to ``nids``.

        Rewrites that change a node's meaning without going through a
        graph mutator — e.g. moving it to a different region, or fusing
        the loop that owns it — must call this so version-keyed caches
        and rewrite dirty sets see the change.
        """
        self._touch(*nids)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, kind: OpKind, *, name: str = "",
                 value: Optional[int] = None, var: Optional[str] = None,
                 array: Optional[str] = None) -> int:
        """Create a node and return its id."""
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = Node(nid, kind, name=name, value=value,
                               var=var, array=array)
        self._din[nid] = {}
        self._dout[nid] = set()
        self._touch(nid)
        return nid

    def set_kind(self, nid: int, kind: OpKind) -> None:
        """Retag a node in place (e.g. flipping a comparison).

        Rewrites must use this (not ``node.kind = ...``) so the change
        lands in the mutation journal.
        """
        self.node(nid).kind = kind
        self._touch(nid)

    def node(self, nid: int) -> Node:
        """Return the node with id ``nid``."""
        try:
            return self.nodes[nid]
        except KeyError:
            raise CdfgError(f"unknown node id {nid}") from None

    def remove_node(self, nid: int) -> None:
        """Remove a node and every edge incident to it."""
        self.node(nid)
        for port in list(self._din[nid]):
            self.remove_data_edge(nid, port)
        for dst, port in list(self._dout[nid]):
            self.remove_data_edge(dst, port)
        for src, pol in list(self._cin.get(nid, ())):
            self.remove_control_edge(src, nid, pol)
        for dst, pol in list(self._cout.get(nid, ())):
            self.remove_control_edge(nid, dst, pol)
        for src in list(self._oin.get(nid, ())):
            self.remove_order_edge(src, nid)
        for dst in list(self._oout.get(nid, ())):
            self.remove_order_edge(nid, dst)
        del self._din[nid]
        del self._dout[nid]
        for table in (self._cin, self._cout, self._oin, self._oout):
            table.pop(nid, None)
        del self.nodes[nid]
        self._touch(nid)

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> List[int]:
        """All node ids, sorted for determinism."""
        return sorted(self.nodes)

    # ------------------------------------------------------------------
    # Data edges
    # ------------------------------------------------------------------
    def set_data_edge(self, src: int, dst: int, port: int) -> None:
        """Connect ``src``'s output to ``dst``'s input ``port``.

        Replaces any existing edge into that port.
        """
        self.node(src)
        self.node(dst)
        if not info(self.nodes[src].kind).has_output:
            raise CdfgError(
                f"node {src} ({self.nodes[src].label()}) has no output")
        old = self._din[dst].get(port)
        if old is not None:
            self._dout[old].discard((dst, port))
            self._touch(old)
        self._din[dst][port] = src
        self._dout[src].add((dst, port))
        self._touch(src, dst)

    def remove_data_edge(self, dst: int, port: int) -> None:
        """Disconnect ``dst``'s input ``port``."""
        src = self._din[dst].pop(port, None)
        if src is not None:
            self._dout[src].discard((dst, port))
            self._touch(src, dst)

    def data_inputs(self, nid: int) -> List[int]:
        """Source node ids feeding ``nid``, ordered by port.

        Raises if any port in ``0..max`` is unconnected.
        """
        ports = self._din[nid]
        if not ports:
            return []
        out = []
        for port in range(max(ports) + 1):
            if port not in ports:
                raise CdfgError(
                    f"node {nid} ({self.nodes[nid].label()}) missing "
                    f"input port {port}")
            out.append(ports[port])
        return out

    def data_input(self, nid: int, port: int) -> int:
        """Source node feeding ``nid``'s input ``port``."""
        try:
            return self._din[nid][port]
        except KeyError:
            raise CdfgError(
                f"node {nid} ({self.nodes[nid].label()}) has no input "
                f"port {port}") from None

    def input_ports(self, nid: int) -> Dict[int, int]:
        """Mapping ``port -> src`` for ``nid`` (a copy)."""
        return dict(self._din[nid])

    def data_users(self, nid: int) -> List[Tuple[int, int]]:
        """``(dst, port)`` pairs consuming ``nid``'s output, sorted."""
        return sorted(self._dout[nid])

    def replace_uses(self, old: int, new: int) -> None:
        """Rewire every data consumer of ``old`` to read from ``new``."""
        if old == new:
            return
        for dst, port in list(self._dout[old]):
            self.set_data_edge(new, dst, port)

    # ------------------------------------------------------------------
    # Control edges
    # ------------------------------------------------------------------
    def add_control_edge(self, src: int, dst: int, polarity: bool) -> None:
        """Make ``dst`` execute only when ``src`` evaluates to ``polarity``."""
        self.node(src)
        self.node(dst)
        guards = self._cin.setdefault(dst, [])
        if (src, polarity) not in guards:
            guards.append((src, polarity))
            self._cout.setdefault(src, []).append((dst, polarity))
            self._touch(src, dst)

    def remove_control_edge(self, src: int, dst: int, polarity: bool) -> None:
        """Remove a control edge if present."""
        if (src, polarity) in self._cin.get(dst, ()):
            self._cin[dst].remove((src, polarity))
            self._cout[src].remove((dst, polarity))
            self._touch(src, dst)

    def control_inputs(self, nid: int) -> List[Tuple[int, bool]]:
        """``(cond_node, polarity)`` guards of ``nid`` (a copy)."""
        return list(self._cin.get(nid, ()))

    def control_users(self, nid: int) -> List[Tuple[int, bool]]:
        """``(guarded_node, polarity)`` pairs controlled by ``nid``."""
        return list(self._cout.get(nid, ()))

    def clear_control_inputs(self, nid: int) -> None:
        """Strip every guard from ``nid`` (used by speculation)."""
        for src, pol in list(self._cin.get(nid, ())):
            self.remove_control_edge(src, nid, pol)

    # ------------------------------------------------------------------
    # Order edges (memory serialization)
    # ------------------------------------------------------------------
    def add_order_edge(self, src: int, dst: int) -> None:
        """Require ``src`` to complete before ``dst`` starts."""
        self.node(src)
        self.node(dst)
        succs = self._oout.setdefault(src, set())
        if dst not in succs:
            succs.add(dst)
            self._oin.setdefault(dst, set()).add(src)
            self._touch(src, dst)

    def remove_order_edge(self, src: int, dst: int) -> None:
        """Remove an order edge if present."""
        if dst in self._oout.get(src, ()):
            self._oout[src].discard(dst)
            self._oin[dst].discard(src)
            self._touch(src, dst)

    def order_preds(self, nid: int) -> Set[int]:
        """Nodes that must complete before ``nid``."""
        return set(self._oin.get(nid, ()))

    def order_succs(self, nid: int) -> Set[int]:
        """Nodes that must wait for ``nid``."""
        return set(self._oout.get(nid, ()))

    # ------------------------------------------------------------------
    # Combined views
    # ------------------------------------------------------------------
    def preds(self, nid: int) -> Set[int]:
        """All predecessors of ``nid`` across the three edge kinds."""
        out = set(self._din[nid].values())
        out.update(src for src, _pol in self._cin.get(nid, ()))
        out.update(self._oin.get(nid, ()))
        return out

    def succs(self, nid: int) -> Set[int]:
        """All successors of ``nid`` across the three edge kinds."""
        out = {dst for dst, _port in self._dout[nid]}
        out.update(dst for dst, _pol in self._cout.get(nid, ()))
        out.update(self._oout.get(nid, ()))
        return out

    def topo_order(self, subset: Optional[Iterable[int]] = None) -> List[int]:
        """Topological order of ``subset`` (default: all nodes).

        Edges leaving/entering the subset are ignored; ties are broken
        by node id for determinism.

        Raises:
            CdfgError: if the induced subgraph is cyclic.
        """
        ids = set(subset) if subset is not None else set(self.nodes)
        indeg = {n: 0 for n in ids}
        for n in ids:
            for p in self.preds(n):
                if p in ids:
                    indeg[n] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: List[int] = []
        import heapq
        heapq.heapify(ready)
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for s in self.succs(n):
                if s in ids:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heapq.heappush(ready, s)
        if len(order) != len(ids):
            cyclic = sorted(n for n in ids if indeg[n] > 0)
            raise CdfgError(f"cycle among nodes {cyclic[:8]}")
        return order

    def copy(self) -> "Graph":
        """Deep copy preserving node ids."""
        g = Graph(self.name)
        g._next_id = self._next_id
        for nid, n in self.nodes.items():
            g.nodes[nid] = Node(n.id, n.kind, name=n.name, value=n.value,
                                var=n.var, array=n.array)
        g._din = {k: dict(v) for k, v in self._din.items()}
        g._dout = {k: set(v) for k, v in self._dout.items()}
        g._cin = {k: list(v) for k, v in self._cin.items()}
        g._cout = {k: list(v) for k, v in self._cout.items()}
        g._oin = {k: set(v) for k, v in self._oin.items()}
        g._oout = {k: set(v) for k, v in self._oout.items()}
        return g

    # ------------------------------------------------------------------
    # Canonical hashing (node-id independent)
    # ------------------------------------------------------------------
    def canonical_node_keys(self, rounds: Optional[int] = None
                            ) -> Dict[int, bytes]:
        """A stable signature per node, independent of node numbering.

        Signatures are refined Weisfeiler-Lehman style: each round folds
        the signatures of a node's data/control/order neighborhoods
        (with ports and polarities) into its own.  Refinement stops as
        soon as the signature partition stabilizes (or after ``rounds``
        rounds), which is isomorphism-invariant.  Two nodes in
        isomorphic positions of renumbered copies of the same graph get
        the same signature; nodes whose neighborhoods differ get
        different ones.

        Semantic attributes (kind, constant value, interface variable,
        array) seed the signature; the cosmetic ``name`` label does not,
        since rewrites derive it from node ids and it would defeat
        cross-lineage matching.  Returns 16-byte digests (hot path of
        the evaluation cache — bytes avoid hex-conversion overhead).

        Each round hashes a node's signature followed by one sorted join
        of its neighbour chunks, ``tag + neighbour signature``, from
        neighbour lists built once per call.  The tag is fixed-width per
        neighbour group — data input ``\\x01`` and data user ``\\x02``
        plus the 2-byte big-endian port, guard ``\\x03`` and guarded
        node ``\\x04`` plus a polarity byte, order predecessor ``\\x05``
        and successor ``\\x06`` — so the one sort orders the groups by
        tag byte and each group by (port or polarity, signature).
        """
        sig: Dict[int, bytes] = {}
        for nid, n in self.nodes.items():
            sig[nid] = _digest(
                f"{n.kind.value}|{n.value!r}|{n.var!r}|{n.array!r}"
                .encode()).digest()
        cap = rounds if rounds is not None else 8
        n_classes = len(set(sig.values()))
        # Every edge is listed at both ends: the in-edge tables are the
        # exact mirrors of the out-edge ones.
        nbrs: Dict[int, List[Tuple[bytes, int]]] = {
            nid: [] for nid in self.nodes}
        for dst, ports in self._din.items():
            for p, src in ports.items():
                port = p.to_bytes(2, "big")
                nbrs[dst].append((b"\x01" + port, src))
                nbrs[src].append((b"\x02" + port, dst))
        for dst, guards in self._cin.items():
            for src, pol in guards:
                polarity = bytes([pol])
                nbrs[dst].append((b"\x03" + polarity, src))
                nbrs[src].append((b"\x04" + polarity, dst))
        for dst, preds in self._oin.items():
            for src in preds:
                nbrs[dst].append((b"\x05", src))
                nbrs[src].append((b"\x06", dst))
        blake2b, join = hashlib.blake2b, b"".join
        for _ in range(cap):
            prev, sig = sig, {}
            for nid, nb in nbrs.items():
                chunks = [tag + prev[m] for tag, m in nb]
                chunks.sort()
                sig[nid] = blake2b(prev[nid] + join(chunks),
                                   digest_size=16).digest()
            classes = len(set(sig.values()))
            if classes == n_classes:
                break  # partition stable: further rounds cannot refine
            n_classes = classes
        return sig

    def canonical_hash(self,
                       node_keys: Optional[Dict[int, bytes]] = None
                       ) -> str:
        """A content hash invariant under node renumbering.

        Renumbered copies of the same graph hash identically (this is
        what lets the evaluation cache merge identical candidates from
        different transformation lineages); structurally or semantically
        different graphs hash apart.
        """
        sig = node_keys if node_keys is not None \
            else self.canonical_node_keys()
        edges: List[bytes] = []
        for nid in self.nodes:
            me = sig[nid]
            for p, s in self._din[nid].items():
                edges.append(b"d" + p.to_bytes(2, "big") + sig[s] + me)
            for s, pol in self._cin.get(nid, ()):
                edges.append(b"c" + bytes([pol]) + sig[s] + me)
            for s in self._oin.get(nid, ()):
                edges.append(b"o" + sig[s] + me)
        h = _digest(b"")
        for s in sorted(sig.values()):
            h.update(s)
        for e in sorted(edges):
            h.update(e)
        return h.hexdigest()

    def __iter__(self) -> Iterator[Node]:
        for nid in self.node_ids():
            yield self.nodes[nid]

    def stats(self) -> Dict[str, int]:
        """Basic size statistics, keyed by op kind plus totals."""
        out: Dict[str, int] = {}
        for n in self.nodes.values():
            out[n.kind.value] = out.get(n.kind.value, 0) + 1
        out["nodes"] = len(self.nodes)
        out["data_edges"] = sum(len(v) for v in self._din.values())
        out["control_edges"] = sum(len(v) for v in self._cin.values())
        return out
