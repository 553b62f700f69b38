"""Memoization cache for candidate evaluation.

The FACT search (paper Figure 6) reschedules every member of every
generation's ``Behavior_set``.  Commutativity/associativity moves from
different lineages very often reproduce *identical* behaviors (modulo
node numbering), so scheduling them again is pure waste.  This module
provides:

* :func:`behavior_fingerprint` — a content hash over a behavior that is
  invariant under node-id renumbering (built on
  :meth:`repro.cdfg.ir.Graph.canonical_hash` plus a canonical
  serialization of the region tree and interface), but sensitive to
  everything with semantic weight: operation kinds, constants, edge
  structure, interface variable and array names, loop structure and
  trip counts, and the condition weight/alias bookkeeping;
* :func:`design_key` — the one key of a design under an evaluation
  context, shared by the engine's memo, its rewrite-pair index and the
  explorer's run store;
* :class:`EvalCache` — a bounded LRU mapping fingerprints to evaluation
  outcomes, with hit/miss/eviction statistics.

Two behaviors whose interfaces are renamed (``in a`` vs ``in x``) are
*different* designs and must not collide; two behaviors that differ only
in node numbering are the same design and must.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..cdfg.ir import _digest
from ..cdfg.regions import (Behavior, BlockRegion, LoopRegion, Region,
                            SeqRegion, region_shape)
from ..errors import CdfgError


def _region_repr(region: Region, sig: Dict[int, bytes]) -> str:
    """Canonical serialization of a region tree via node signatures.

    ``SeqRegion`` children keep their order (sequencing is semantic);
    ``BlockRegion`` members are sorted (the block scheduler treats them
    as a set).
    """
    if isinstance(region, BlockRegion):
        return f"B({sorted(sig[n] for n in region.nodes)})"
    if isinstance(region, SeqRegion):
        return "S(" + ",".join(_region_repr(c, sig)
                               for c in region.children) + ")"
    if isinstance(region, LoopRegion):
        lvs = sorted((lv.name, sig[lv.join]) for lv in region.loop_vars)
        conds = sorted(sig[n] for n in region.cond_nodes)
        cond = sig[region.cond] if region.cond in sig else repr(region.cond)
        return (f"L(vars={lvs},cond_nodes={conds},cond={cond},"
                f"trip={region.trip_count},"
                f"body={_region_repr(region.body, sig)})")
    raise CdfgError(f"unknown region type {type(region).__name__}")


def behavior_fingerprint(behavior: Behavior) -> str:
    """Content hash of a behavior, invariant under node renumbering."""
    sig = behavior.graph.canonical_node_keys()
    parts = [
        behavior.graph.canonical_hash(node_keys=sig),
        _region_repr(behavior.region, sig),
        repr(behavior.inputs),
        repr(behavior.outputs),
        repr(sorted((a.name, a.size, a.ports)
                    for a in behavior.arrays.values())),
        repr(sorted((sig.get(n, str(n).encode()), w)
                    for n, w in behavior.cond_weights.items())),
        repr(sorted((sig.get(a, str(a).encode()),
                     sig.get(b, str(b).encode()))
                    for a, b in behavior.cond_aliases.items())),
    ]
    return _digest("|".join(parts).encode()).hexdigest()


def behavior_raw_fingerprint(behavior: Behavior) -> str:
    """Content hash of a behavior, *sensitive* to node numbering.

    The rewrite driver's match cache and the engine's (parent × match)
    memoization key on this: a :class:`~repro.rewrite.pattern.Match`
    names concrete node ids (and a loop match its loop's name), so it
    may only be reused on a behavior that is byte-identical *including*
    numbering and loop names — the canonical fingerprint would wrongly
    merge renumbered twins whose ids mean different things.  A single
    pass (no WL refinement), so it is roughly an order of magnitude
    cheaper than :func:`behavior_fingerprint`.
    """
    g = behavior.graph
    h = _digest()
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        h.update(f"n{nid}|{n.kind.value}|{n.value!r}|{n.var!r}|"
                 f"{n.array!r};".encode())
        h.update(f"d{sorted(g.input_ports(nid).items())!r};"
                 f"c{sorted(g.control_inputs(nid))!r};"
                 f"o{sorted(g.order_preds(nid))!r};".encode())
    h.update("|".join([
        region_shape(behavior.region, set()),
        repr(behavior.inputs),
        repr(behavior.outputs),
        repr(sorted((a.name, a.size, a.ports)
                    for a in behavior.arrays.values())),
        repr(sorted(behavior.cond_weights.items())),
        repr(sorted(behavior.cond_aliases.items())),
    ]).encode())
    return h.hexdigest()


def cached_fingerprint(behavior: Behavior) -> str:
    """:func:`behavior_fingerprint`, memoized on the behavior object.

    Keyed on ``graph.version`` (the mutation journal), so the cached
    value survives exactly as long as the graph is untouched.  Callers
    rely on the search-pipeline contract that behaviors are immutable
    once their producing rewrite (including hygiene) has run; rewrites
    that only reorganize the region tree must :meth:`~repro.cdfg.ir
    .Graph.touch` the nodes they move so the version advances.
    """
    version = behavior.graph.version
    cached = getattr(behavior, "_fp_canonical", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    fp = behavior_fingerprint(behavior)
    behavior._fp_canonical = (version, fp)  # type: ignore[attr-defined]
    return fp


def design_key(context_fp: str, behavior: Behavior) -> str:
    """The key of ``behavior`` under the evaluation context
    ``context_fp`` (:func:`repro.core.engine.context_fingerprint`):
    ``digest(context_fp ":" canonical fingerprint)``.

    The run store persists designs under it and the evaluation engine
    memoizes under it, so one canonical hash per behavior (memoized by
    :func:`cached_fingerprint`) serves both.
    """
    return _digest((context_fp + ":" + cached_fingerprint(behavior))
                   .encode()).hexdigest()


def cached_raw_fingerprint(behavior: Behavior) -> str:
    """:func:`behavior_raw_fingerprint`, memoized like
    :func:`cached_fingerprint`."""
    version = behavior.graph.version
    cached = getattr(behavior, "_fp_raw", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    fp = behavior_raw_fingerprint(behavior)
    behavior._fp_raw = (version, fp)  # type: ignore[attr-defined]
    return fp


@dataclass
class CacheStats:
    """Counters exposed by :class:`EvalCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


class EvalCache:
    """A bounded LRU cache from content keys to evaluation outcomes.

    Keys are opaque strings (fingerprints); values are whatever the
    evaluation engine stores — the cache never inspects them.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Any]:
        """Look up ``key``, counting a hit or miss; None on miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
