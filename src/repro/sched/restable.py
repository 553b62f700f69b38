"""Reservation tables for resource-constrained scheduling.

Two flavors:

* :class:`LinearTable` — cycle-indexed, for acyclic (block) scheduling;
* :class:`ModuloTable` — indexed by ``cycle mod II``, for software
  pipelining (the paper's implicit loop unrolling).

The modulo table supports *guarded sharing*: two operations whose guards
are mutually exclusive may occupy the same functional-unit instance in
the same cycle (paper Section 1: functional pipelining "even across if
constructs").  A sharing predicate is injected so the table stays
independent of the guard analysis.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional

#: Predicate deciding whether two ops may share one FU instance.
SharePredicate = Callable[[int, int], bool]


class _InstanceTable:
    """Common logic: per-slot list of instances, each holding op groups."""

    def __init__(self, capacity_of: Callable[[str], int],
                 share: Optional[SharePredicate] = None) -> None:
        self._capacity_of = capacity_of
        self._share = share
        # (slot, resource) -> list of instances; an instance is a list of
        # node ids that pairwise may share it.
        self._table: Dict[tuple, List[List[int]]] = {}

    def _fits_instance(self, instance: List[int], nid: int) -> bool:
        if self._share is None:
            return False
        return all(self._share(nid, other) for other in instance)

    def _can_place_slot(self, slot: tuple, resource: str, nid: int) -> bool:
        instances = self._table.get((slot, resource), [])
        if any(self._fits_instance(inst, nid) for inst in instances):
            return True
        return len(instances) < self._capacity_of(resource)

    def _place_slot(self, slot: tuple, resource: str, nid: int) -> None:
        instances = self._table.setdefault((slot, resource), [])
        for inst in instances:
            if self._fits_instance(inst, nid):
                inst.append(nid)
                return
        if len(instances) >= self._capacity_of(resource):
            raise RuntimeError(
                f"resource {resource} over-subscribed at slot {slot}")
        instances.append([nid])

    def usage(self, slot: tuple, resource: str) -> int:
        """Instances in use for ``resource`` at ``slot``."""
        return len(self._table.get((slot, resource), []))


class LinearTable(_InstanceTable):
    """Cycle-indexed reservation table.

    Keeps a per-resource sorted free-list (strictly: a sorted list of
    *saturated* cycles — cycles where every instance is taken) so the
    list scheduler can skip over fully booked stretches instead of
    probing them cycle by cycle; placement results are identical to
    the cycle-by-cycle scan.
    """

    def __init__(self, capacity_of: Callable[[str], int]) -> None:
        super().__init__(capacity_of)
        # resource -> sorted cycles at which every instance is in use
        self._saturated: Dict[str, List[int]] = {}

    def can_place(self, cycle: int, n_cycles: int, resource: str,
                  nid: int) -> bool:
        """True if ``nid`` can occupy ``resource`` for ``n_cycles``
        starting at ``cycle``."""
        return all(self._can_place_slot((c,), resource, nid)
                   for c in range(cycle, cycle + max(n_cycles, 1)))

    def place(self, cycle: int, n_cycles: int, resource: str,
              nid: int) -> None:
        """Reserve the resource (call only after ``can_place``)."""
        for c in range(cycle, cycle + max(n_cycles, 1)):
            self._place_slot((c,), resource, nid)
            instances = self._table[((c,), resource)]
            if len(instances) >= self._capacity_of(resource):
                full = self._saturated.setdefault(resource, [])
                i = bisect_left(full, c)
                if i >= len(full) or full[i] != c:
                    insort(full, c)

    def next_free_cycle(self, cycle: int, resource: str) -> int:
        """Smallest cycle ``>= cycle`` whose slot is not saturated.

        Used by the scheduler's placement scan to jump over fully
        booked cycles in one step.
        """
        full = self._saturated.get(resource)
        if not full:
            return cycle
        i = bisect_left(full, cycle)
        while i < len(full) and full[i] == cycle:
            cycle += 1
            i += 1
        return cycle


class ModuloTable(_InstanceTable):
    """Reservation table indexed modulo the initiation interval."""

    def __init__(self, ii: int, capacity_of: Callable[[str], int],
                 share: Optional[SharePredicate] = None) -> None:
        super().__init__(capacity_of, share)
        if ii < 1:
            raise ValueError(f"initiation interval must be >= 1, got {ii}")
        self.ii = ii

    def can_place(self, cycle: int, n_cycles: int, resource: str,
                  nid: int) -> bool:
        """True if the op fits at ``cycle`` in the modulo table."""
        if n_cycles > self.ii:
            # An op occupying more cycles than the II would collide with
            # its own next instance.
            return False
        return all(self._can_place_slot((c % self.ii,), resource, nid)
                   for c in range(cycle, cycle + max(n_cycles, 1)))

    def place(self, cycle: int, n_cycles: int, resource: str,
              nid: int) -> None:
        for c in range(cycle, cycle + max(n_cycles, 1)):
            self._place_slot((c % self.ii,), resource, nid)
