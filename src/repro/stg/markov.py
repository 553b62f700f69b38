"""Markov-chain performance analysis of STGs.

Implements the method of Bhattacharya, Dey & Brglez (the paper's
reference [10]) used throughout Section 2.2:

* **expected visits** — how many times each state is entered during one
  execution (entry → exit), from the fundamental matrix of the absorbing
  chain;
* **average schedule length** — expected cycles per execution = the sum
  of expected visits (each state is one cycle);
* **state probabilities** — the fraction of time spent in each state
  over repeated executions (Example 1's ``P_Si`` values), i.e. expected
  visits normalized by the average schedule length;
* **fragment visits** — the localized variant used by the incremental
  evaluation pipeline: solve one region's sub-chain in isolation given
  the entry mass flowing into it, so an unchanged region's totals can
  be spliced into a candidate's analysis without re-solving the whole
  system.

Observability: every linear solve opens a ``markov.solve`` span on the
``tracer`` its caller passes (the scheduler passes its own); the default
is the no-op :data:`~repro.obs.trace.NULL_TRACER`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..errors import MarkovError
from ..obs.trace import NULL_TRACER, AnyTracer
from .model import Stg, Transition

#: Seconds this process has spent inside absorbing-chain solves (see
#: :func:`solve_seconds`).
_SOLVE_SECONDS = 0.0


def solve_seconds() -> float:
    """Seconds this process has spent inside absorbing-chain solves.

    A monotone process-local counter: the evaluation engine diffs it
    around each candidate and ships the delta home as
    ``EvalStats.numeric_seconds`` (matrix assembly from transitions,
    LAPACK and the validity check — the numeric core without the STG
    walk around it).
    """
    return _SOLVE_SECONDS


#: Use a sparse linear solve above this many states.
SPARSE_THRESHOLD = 600
#: Refuse to analyze STGs beyond this size (degenerate schedules).
MAX_STATES = 60_000


def _sparse_solve(transitions: List[Transition], index: Dict[int, int],
                  n: int, e):
    """Sparse ``(I − Qᵀ) v = e``, assembled directly in COO triplets."""
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for t in transitions:
        si = index.get(t.src)
        di = index.get(t.dst)
        if si is None or di is None:
            continue
        rows.append(di)  # transposed
        cols.append(si)
        data.append(t.prob)
    qt = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    a = identity(n, format="csr") - qt
    return spsolve(a, e)


def _solve_visits(name: str, transitions: List[Transition],
                  index: Dict[int, int], n: int, e, tracer: AnyTracer):
    """Solve ``v = e + Qᵀ v`` over the states in ``index``.

    ``Q`` keeps only transitions whose source *and* destination are
    indexed; everything else (the exit state, or mass leaving a
    fragment) simply drains.  Time spent here accrues to
    :func:`solve_seconds`.
    """
    global _SOLVE_SECONDS
    t0 = time.perf_counter()
    try:
        with tracer.span("markov.solve", states=n,
                          method="sparse" if n > SPARSE_THRESHOLD
                          else "dense") as span:
            try:
                if n > SPARSE_THRESHOLD:
                    v = _sparse_solve(transitions, index, n, e)
                else:
                    q = np.zeros((n, n))
                    for t in transitions:
                        si = index.get(t.src)
                        di = index.get(t.dst)
                        if si is None or di is None:
                            continue
                        q[si, di] += t.prob
                    v = np.linalg.solve(np.eye(n) - q.T, e)
                # spsolve does not raise on a singular system: it warns
                # and returns NaN.
                if not np.all(np.isfinite(v)):
                    raise np.linalg.LinAlgError("Singular matrix")
            except np.linalg.LinAlgError as exc:
                span.set(singular=True)
                raise MarkovError(
                    f"{name}: absorbing-chain solve failed ({exc}); the "
                    f"STG may loop forever with probability 1") from None
            if np.any(v < -1e-6):
                raise MarkovError(f"{name}: negative expected visits; "
                                  f"inconsistent probabilities")
            return v
    finally:
        _SOLVE_SECONDS += time.perf_counter() - t0


def expected_visits(stg: Stg, tracer: AnyTracer = NULL_TRACER
                    ) -> Dict[int, float]:
    """Expected number of entries into each state per execution.

    Solves ``v = e_entry + Qᵀ v`` where ``Q`` is the transition matrix
    restricted to transient (non-exit) states; the exit state is entered
    exactly once.

    Raises:
        MarkovError: if the exit is unreachable or the chain does not
            terminate with probability 1 (singular system).
    """
    stg.validate()
    if stg.exit not in stg.reachable():
        raise MarkovError(f"{stg.name}: exit state unreachable from entry")
    transient = [sid for sid in stg.state_ids() if sid != stg.exit]
    index = {sid: i for i, sid in enumerate(transient)}
    n = len(transient)
    if n == 0:
        return {stg.exit: 1.0}
    if n > MAX_STATES:
        raise MarkovError(
            f"{stg.name}: {n} states exceeds the analysis limit "
            f"{MAX_STATES}; the schedule is degenerate")
    e = np.zeros(n)
    if stg.entry != stg.exit:
        e[index[stg.entry]] = 1.0
    v = _solve_visits(stg.name, stg.transitions, index, n, e, tracer)
    visits = {sid: max(float(v[i]), 0.0) for sid, i in index.items()}
    visits[stg.exit] = 1.0
    return visits


def fragment_visits(stg: Stg, sources: Mapping[int, float],
                    tracer: AnyTracer = NULL_TRACER) -> Dict[int, float]:
    """Expected entries into each state of an STG *fragment*.

    The localized re-analysis primitive: ``stg`` holds one region's
    states (a relocatable schedule fragment) and ``sources`` gives the
    external entry mass per entry state — for a scheduled fragment, its
    entry-port weights.  Solves ``v = e + Qᵀ v`` over *all* fragment
    states; transitions leaving the fragment are simply absent from it,
    so their mass drains out.

    Splicing these per-fragment totals back together is exact for
    sequentially composed fragments: probability conservation delivers
    the full unit of mass to each top-level fragment per execution, so
    a fragment solved once under ``sources`` summing to 1 has the same
    visit totals wherever it is spliced.

    Raises:
        MarkovError: if a source state is unknown, the fragment exceeds
            the analysis size limit, or its internal chain does not
            drain (singular system).
    """
    ids = stg.state_ids()
    n = len(ids)
    if n == 0:
        return {}
    if n > MAX_STATES:
        raise MarkovError(
            f"{stg.name}: {n} states exceeds the analysis limit "
            f"{MAX_STATES}; the schedule is degenerate")
    index = {sid: i for i, sid in enumerate(ids)}
    e = np.zeros(n)
    for sid, weight in sources.items():
        if sid not in index:
            raise MarkovError(
                f"{stg.name}: fragment source state {sid} does not exist")
        e[index[sid]] += weight
    v = _solve_visits(stg.name, stg.transitions, index, n, e, tracer)
    return {sid: max(float(v[i]), 0.0) for sid, i in index.items()}


def average_schedule_length(stg: Stg,
                            tracer: AnyTracer = NULL_TRACER) -> float:
    """Expected cycles for one execution (entry → exit, inclusive)."""
    return float(sum(expected_visits(stg, tracer).values()))


def state_probabilities(stg: Stg,
                        visits: Optional[Mapping[int, float]] = None
                        ) -> Dict[int, float]:
    """Long-run fraction of cycles spent in each state (Example 1).

    ``visits`` optionally supplies precomputed expected visits (e.g. a
    schedule result's memoized totals) so callers that already solved
    the chain don't solve it again.
    """
    if visits is None:
        visits = expected_visits(stg)
    total = sum(visits.values())
    if total <= 0:
        raise MarkovError(f"{stg.name}: zero total schedule length")
    return {sid: v / total for sid, v in visits.items()}


def throughput(stg: Stg) -> float:
    """Executions completed per cycle (the paper reports 1000× this)."""
    length = average_schedule_length(stg)
    if length <= 0:
        raise MarkovError(f"{stg.name}: non-positive schedule length")
    return 1.0 / length
