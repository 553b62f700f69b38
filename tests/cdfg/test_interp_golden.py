"""Golden interpreter runs: every ``ExecResult`` field stays pinned.

The interpreter is the ground truth behind profiling and every semantic
oracle, and those only compare outputs and memory.  This file pins the
whole result of each run -- outputs, arrays, condition counts, loop
iterations, node counts and steps, dict order included -- or, when a
run raises, the error's type and message.

Covered runs:

* the six bench circuits on their Table-2 traces;
* generated circuits (``grid_config(seed)``) on narrow and wide
  uniform traces;
* for both, up to ``REWRITES_PER_TRANSFORM`` applied rewrites per
  transformation (``default_library().candidates`` in ``sort_key``
  order), run on the first ``CHILD_CASES`` traces of each trace set;
* one pass over every baseline with ``max_steps=LOW_MAX_STEPS``.

Each variant shares one :class:`Interpreter` across its traces, as
:func:`repro.profiling.profile` does.  Every run's text is folded into
one SHA-256 per variant; the table keeps its first 16 hex digits.

When the interpreter's semantics change on purpose, regenerate the
table and review the diff::

    PYTHONPATH=src python tests/cdfg/test_interp_golden.py
"""

import hashlib
from dataclasses import fields
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.bench.circuits import circuit
from repro.cdfg.interp import Interpreter
from repro.cdfg.regions import Behavior
from repro.errors import InterpError, ReproError
from repro.gen.generator import generate, grid_config
from repro.profiling.traces import TraceCase, uniform_traces
from repro.transforms import default_library

BENCH = ("fir", "gcd", "igf", "pps", "sintran", "test2")
GEN_SEEDS = tuple(range(12))
REWRITES_PER_TRANSFORM = 2
CHILD_CASES = 1
LOW_MAX_STEPS = 40
INT32 = (-2 ** 31, 2 ** 31 - 1)


def run_text(interp: Interpreter, case: TraceCase) -> str:
    """``repr`` of every result field, or of ``(type, message)``."""
    try:
        res = interp.run(case.inputs, case.arrays)
    except InterpError as exc:
        return repr((type(exc).__name__, str(exc)))
    return repr(tuple(getattr(res, f.name) for f in fields(res)))


def digest(behavior: Behavior, cases: Sequence[TraceCase],
           max_steps: int = 2_000_000) -> str:
    interp = Interpreter(behavior, max_steps=max_steps)
    h = hashlib.sha256()
    for case in cases:
        h.update(run_text(interp, case).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def rewrites(behavior: Behavior) -> List[Tuple[str, Behavior]]:
    """Up to ``REWRITES_PER_TRANSFORM`` applied children per
    transformation, labelled ``transform#k``."""
    taken: Dict[str, int] = {}
    out = []
    cands = sorted(default_library().candidates(behavior),
                   key=lambda cand: cand.sort_key)
    for cand in cands:
        k = taken.get(cand.transform, 0)
        if k >= REWRITES_PER_TRANSFORM:
            continue
        try:
            child = cand.apply(behavior)
        except ReproError:
            continue
        taken[cand.transform] = k + 1
        out.append((f"{cand.transform}#{k}", child))
    return out


def variant_hashes(behavior: Behavior,
                   trace_sets: Dict[str, Sequence[TraceCase]]
                   ) -> Dict[str, str]:
    out = {}
    for tag, cases in trace_sets.items():
        out[f"{tag} baseline"] = digest(behavior, cases)
        out[f"{tag} max_steps={LOW_MAX_STEPS}"] = digest(
            behavior, cases, max_steps=LOW_MAX_STEPS)
    for label, child in rewrites(behavior):
        for tag, cases in trace_sets.items():
            out[f"{tag} {label}"] = digest(child, cases[:CHILD_CASES])
    return out


def bench_hashes(name: str) -> Dict[str, str]:
    c = circuit(name)
    beh = c.behavior()
    return variant_hashes(beh, {"table2": c.traces(beh).cases})


def gen_hashes(seed: int) -> Dict[str, str]:
    beh = generate(seed, grid_config(seed)).behavior()
    narrow = uniform_traces(beh, 3, lo=0, hi=3, seed=seed,
                            array_lo=0, array_hi=3)
    wide = uniform_traces(beh, 3, lo=INT32[0], hi=INT32[1], seed=seed,
                          array_lo=INT32[0], array_hi=INT32[1])
    return variant_hashes(beh, {"narrow": narrow.cases,
                                "wide": wide.cases})


def all_hashes() -> Dict[str, Dict[str, str]]:
    out = {name: bench_hashes(name) for name in BENCH}
    out.update({f"gen{seed:02d}": gen_hashes(seed) for seed in GEN_SEEDS})
    return out


GOLDEN: Dict[str, Dict[str, str]] = {
    "fir": {
        "table2 baseline": "b2689ae3068cde4a",
        "table2 max_steps=40": "237f238f6db3af5b",
        "table2 associativity#0": "f820b28201e638d6",
        "table2 associativity#1": "f820b28201e638d6",
        "table2 commutativity#0": "ef95bf7da1c373e0",
        "table2 commutativity#1": "ef95bf7da1c373e0",
        "table2 constprop#0": "fe846483cd67cf96",
        "table2 spec_unroll#0": "fbc549759036f378",
        "table2 strength#0": "fe846483cd67cf96",
        "table2 strength#1": "49286917701436b5",
        "table2 unroll#0": "26ce010618332d52",
        "table2 unroll#1": "ddb489e19f6630f6",
    },
    "gcd": {
        "table2 baseline": "aa95db29f45df493",
        "table2 max_steps=40": "d38aeb7893fdc067",
        "table2 commutativity#0": "8d0033c754a0b23f",
        "table2 commutativity#1": "8d0033c754a0b23f",
        "table2 spec_unroll#0": "e5e450d23965ccc9",
        "table2 speculation#0": "beea8f985df5180a",
        "table2 speculation#1": "4dca35b933c08e5f",
    },
    "igf": {
        "table2 baseline": "7f09d43133398bca",
        "table2 max_steps=40": "237f238f6db3af5b",
        "table2 commutativity#0": "912f71d78eadd40d",
        "table2 commutativity#1": "912f71d78eadd40d",
        "table2 distributivity#0": "2f488802ab6a96f2",
        "table2 spec_unroll#0": "73234814ebaadbd3",
        "table2 strength#0": "fd21ffde84668023",
    },
    "pps": {
        "table2 baseline": "98b8e4a042c3f255",
        "table2 max_steps=40": "98b8e4a042c3f255",
        "table2 associativity#0": "7ebcbba9897c8e27",
        "table2 associativity#1": "7ebcbba9897c8e27",
        "table2 commutativity#0": "cd2492ad2bf23ebe",
        "table2 commutativity#1": "cd2492ad2bf23ebe",
    },
    "sintran": {
        "table2 baseline": "e090e75f18897ece",
        "table2 max_steps=40": "9bdda5a9396e3d77",
        "table2 associativity#0": "2f9083a26c86495d",
        "table2 commutativity#0": "c842e4c0fb971493",
        "table2 commutativity#1": "f07cd2dffb3122fb",
        "table2 cse#0": "c842e4c0fb971493",
        "table2 spec_unroll#0": "1a5b5b413038b3fe",
        "table2 speculation#0": "31a050a578178325",
        "table2 speculation#1": "ba945218e40954a1",
        "table2 strength#0": "7025cccc1ebce95a",
        "table2 unroll#0": "9dc99acfff17a162",
        "table2 unroll#1": "7605a8c55e5473a4",
    },
    "test2": {
        "table2 baseline": "50d88d1acef0c776",
        "table2 max_steps=40": "237f238f6db3af5b",
        "table2 associativity#0": "cce7990ab5981afe",
        "table2 associativity#1": "cce7990ab5981afe",
        "table2 commutativity#0": "3047e1d3df4cef96",
        "table2 commutativity#1": "3047e1d3df4cef96",
        "table2 spec_unroll#0": "27856ddf9da9c3c1",
        "table2 spec_unroll#1": "ea829513f9b24210",
        "table2 unroll#0": "4bdd9a2be56068c5",
        "table2 unroll#1": "d850d52b11b2e5d6",
    },
    "gen00": {
        "narrow baseline": "f3d057d87f786b26",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "040610c794c08128",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "d943b5fe8c0dd600",
        "wide associativity#0": "7d226136e2539dad",
        "narrow associativity#1": "d943b5fe8c0dd600",
        "wide associativity#1": "7d226136e2539dad",
        "narrow commutativity#0": "da7b2201e1b8b67e",
        "wide commutativity#0": "359a7c268c0a55a3",
        "narrow commutativity#1": "da7b2201e1b8b67e",
        "wide commutativity#1": "359a7c268c0a55a3",
        "narrow constprop#0": "b06a56e9d11b1260",
        "wide constprop#0": "616c99ba42941ffe",
        "narrow constprop#1": "bacb2c2882bec68b",
        "wide constprop#1": "28d201d993229f24",
        "narrow cse#0": "da7b2201e1b8b67e",
        "wide cse#0": "359a7c268c0a55a3",
        "narrow cse#1": "da7b2201e1b8b67e",
        "wide cse#1": "359a7c268c0a55a3",
        "narrow distributivity#0": "f80080d145221bbe",
        "wide distributivity#0": "a3d3fb8d39565528",
        "narrow distributivity#1": "65cc1249569a6c0f",
        "wide distributivity#1": "3f799e787910647b",
        "narrow hoist#0": "80515f8ef41cb4ec",
        "wide hoist#0": "731c147dfe340e38",
        "narrow hoist#1": "a59b21d8f913117c",
        "wide hoist#1": "d6a97bf73414c817",
        "narrow speculation#0": "da7b2201e1b8b67e",
        "wide speculation#0": "359a7c268c0a55a3",
        "narrow speculation#1": "6d81d0048eb39944",
        "wide speculation#1": "3618a46a73523602",
        "narrow strength#0": "1a3b45987dcdb405",
        "wide strength#0": "4f300c9efce687f3",
        "narrow strength#1": "da7b2201e1b8b67e",
        "wide strength#1": "359a7c268c0a55a3",
    },
    "gen01": {
        "narrow baseline": "43469542bd1cc5aa",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "92b9c62af85d09c0",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "5b5adc12c24554ae",
        "wide associativity#0": "e09cfe26a7f638bd",
        "narrow associativity#1": "1d359669cf16bc5f",
        "wide associativity#1": "50f0fde27f16f050",
        "narrow commutativity#0": "cc2a558eb702c361",
        "wide commutativity#0": "489adf8be30ed326",
        "narrow commutativity#1": "cc2a558eb702c361",
        "wide commutativity#1": "489adf8be30ed326",
        "narrow constprop#0": "37e65172c420b6f7",
        "wide constprop#0": "8926ac8b1ed6b7e8",
        "narrow constprop#1": "5dfb7b7c61ecc867",
        "wide constprop#1": "97dc375a2fafedd3",
        "narrow speculation#0": "cc2a558eb702c361",
        "wide speculation#0": "489adf8be30ed326",
        "narrow speculation#1": "cc2a558eb702c361",
        "wide speculation#1": "489adf8be30ed326",
        "narrow strength#0": "e5b5645ca2d7ea3e",
        "wide strength#0": "7a14af20d7360bd7",
    },
    "gen02": {
        "narrow baseline": "f29826a1c425722d",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "df882aa8aef3dbc2",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "cba5dd3a2f69c3d8",
        "wide associativity#0": "047bd72ec7a4f129",
        "narrow associativity#1": "cba5dd3a2f69c3d8",
        "wide associativity#1": "047bd72ec7a4f129",
        "narrow commutativity#0": "2778617579e6459a",
        "wide commutativity#0": "d8375af6c5acccde",
        "narrow commutativity#1": "2778617579e6459a",
        "wide commutativity#1": "d8375af6c5acccde",
        "narrow constprop#0": "2778617579e6459a",
        "wide constprop#0": "679d87e48c34b2d4",
        "narrow constprop#1": "2778617579e6459a",
        "wide constprop#1": "bca6c590daaa01db",
        "narrow distributivity#0": "4f6300ee75ad4e50",
        "wide distributivity#0": "bb9515b453c52ccb",
        "narrow distributivity#1": "8cf6261a49db29bd",
        "wide distributivity#1": "941038e157f37254",
        "narrow hoist#0": "10a201f65c00f958",
        "wide hoist#0": "f6eee45e80ef58d8",
        "narrow hoist#1": "d6369d622842f804",
        "wide hoist#1": "b90e6e32b9b0b594",
        "narrow spec_unroll#0": "a192537f52102eb2",
        "wide spec_unroll#0": "203e9ddf3781e57b",
        "narrow spec_unroll#1": "9c230ed511e07269",
        "wide spec_unroll#1": "39e2544ad5fc1188",
        "narrow speculation#0": "2778617579e6459a",
        "wide speculation#0": "d8375af6c5acccde",
        "narrow speculation#1": "2778617579e6459a",
        "wide speculation#1": "d8375af6c5acccde",
        "narrow strength#0": "7a87deabf2be9d8a",
        "wide strength#0": "a8f30daa3d9398ed",
        "narrow strength#1": "d3b77857f6a7c03c",
        "wide strength#1": "dff671e9d712df3c",
        "narrow unroll#0": "7f0327b9b6965007",
        "wide unroll#0": "44cc4b935cba801c",
    },
    "gen03": {
        "narrow baseline": "2ad5c0614a15babd",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "bbf21f5591086b50",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "6513d7c929d816c9",
        "wide associativity#0": "c669ae544a32fe1d",
        "narrow associativity#1": "8e1cd59eaa8a277a",
        "wide associativity#1": "50969da6888c9c7c",
        "narrow commutativity#0": "97b4992c0cf90404",
        "wide commutativity#0": "ee4fa1839b9042b9",
        "narrow commutativity#1": "97b4992c0cf90404",
        "wide commutativity#1": "ee4fa1839b9042b9",
        "narrow constprop#0": "2e816c6970234b70",
        "wide constprop#0": "f2b0788636243c57",
        "narrow constprop#1": "979d39e1a9ba309f",
        "wide constprop#1": "4c4c0084e80cfbf4",
        "narrow cse#0": "97b4992c0cf90404",
        "wide cse#0": "ee4fa1839b9042b9",
        "narrow cse#1": "97b4992c0cf90404",
        "wide cse#1": "ee4fa1839b9042b9",
        "narrow distributivity#0": "5e989534677866ab",
        "wide distributivity#0": "f1399f925ad97f89",
        "narrow distributivity#1": "e2c25fb8b9c53e88",
        "wide distributivity#1": "c1c805331a29fdd0",
        "narrow speculation#0": "97b4992c0cf90404",
        "wide speculation#0": "ee4fa1839b9042b9",
        "narrow speculation#1": "97b4992c0cf90404",
        "wide speculation#1": "ee4fa1839b9042b9",
    },
    "gen04": {
        "narrow baseline": "af890ffb2ecf079d",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "0897769cac716081",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "bcc5e133bff68256",
        "wide associativity#0": "bb31ce35ded81760",
        "narrow associativity#1": "bcc5e133bff68256",
        "wide associativity#1": "bb31ce35ded81760",
        "narrow commutativity#0": "a22b0dc3aa061bbd",
        "wide commutativity#0": "7c5e7e24c51d256f",
        "narrow commutativity#1": "a22b0dc3aa061bbd",
        "wide commutativity#1": "7c5e7e24c51d256f",
        "narrow constprop#0": "e76f00fb1c3b591a",
        "wide constprop#0": "17cfe752fa46f62f",
        "narrow constprop#1": "0bc4605fa5ffe90e",
        "wide constprop#1": "6078d07092dd9206",
        "narrow cse#0": "a22b0dc3aa061bbd",
        "wide cse#0": "7c5e7e24c51d256f",
        "narrow cse#1": "a22b0dc3aa061bbd",
        "wide cse#1": "7c5e7e24c51d256f",
        "narrow distributivity#0": "fcfe26def2f61292",
        "wide distributivity#0": "24cd43969bb3670e",
        "narrow distributivity#1": "9c044617d05100bb",
        "wide distributivity#1": "10b4065449630d9b",
        "narrow hoist#0": "6d9c793091a894be",
        "wide hoist#0": "3521f8282e59a608",
        "narrow hoist#1": "faa25bda27a71506",
        "wide hoist#1": "9381e863cc926f9a",
        "narrow speculation#0": "64d2234ed689407f",
        "wide speculation#0": "1276f5d0997ba357",
        "narrow speculation#1": "7fabe59d8d76f582",
        "wide speculation#1": "930cc2af7b1d5a68",
        "narrow strength#0": "10e2f5cb1bb83195",
        "wide strength#0": "b5ef615ba84bfee2",
        "narrow strength#1": "15d335817169cd34",
        "wide strength#1": "e91b380d85fa97ad",
    },
    "gen05": {
        "narrow baseline": "55181a7281412082",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "84716023be3bfb6d",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "da9a18b0c2d76dc7",
        "wide associativity#0": "131a28a0fb650006",
        "narrow commutativity#0": "738a25c558ca3428",
        "wide commutativity#0": "dac6da527d332200",
        "narrow commutativity#1": "738a25c558ca3428",
        "wide commutativity#1": "dac6da527d332200",
        "narrow constprop#0": "738a25c558ca3428",
        "wide constprop#0": "dac6da527d332200",
        "narrow constprop#1": "738a25c558ca3428",
        "wide constprop#1": "dac6da527d332200",
        "narrow distributivity#0": "7eb55dea92cfb10d",
        "wide distributivity#0": "cf7aca652645295b",
        "narrow distributivity#1": "a52d0e73d7f718b5",
        "wide distributivity#1": "0a168b00de15d3d1",
        "narrow hoist#0": "d0f906b9c3b7dc46",
        "wide hoist#0": "1425e466a7389a81",
        "narrow hoist#1": "dd39a18886136303",
        "wide hoist#1": "c9801407c021f66c",
        "narrow spec_unroll#0": "fc3d22f4329dc08d",
        "wide spec_unroll#0": "4c7eade31b59ba0e",
        "narrow speculation#0": "f11bdc5b9cd1669f",
        "wide speculation#0": "5d7a4e3a080ef391",
        "narrow speculation#1": "aa3478dcb7098363",
        "wide speculation#1": "553e0a36ebbfcc5e",
        "narrow strength#0": "527aa141bde0819f",
        "wide strength#0": "9a7ef8cded262ce1",
    },
    "gen06": {
        "narrow baseline": "9bd073614c2d5f25",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "472283f1dd9e8174",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "ac4f8da0b378388e",
        "wide associativity#0": "bda4f7d81372879c",
        "narrow associativity#1": "ac4f8da0b378388e",
        "wide associativity#1": "bda4f7d81372879c",
        "narrow commutativity#0": "ac4f8da0b378388e",
        "wide commutativity#0": "bda4f7d81372879c",
        "narrow commutativity#1": "ac4f8da0b378388e",
        "wide commutativity#1": "bda4f7d81372879c",
        "narrow constprop#0": "e155144fa3052293",
        "wide constprop#0": "144fa361e71fd91a",
        "narrow constprop#1": "ac4f8da0b378388e",
        "wide constprop#1": "bda4f7d81372879c",
        "narrow cse#0": "09ce30b4fda6e4dd",
        "wide cse#0": "dce7cca240af7831",
        "narrow cse#1": "5b46c0d175a8c03d",
        "wide cse#1": "a61b296af276c5ff",
        "narrow distributivity#0": "43a13345b4cbb327",
        "wide distributivity#0": "748903d8fc4a0315",
        "narrow speculation#0": "80f5adb41a78e68c",
        "wide speculation#0": "1aa3b6ecad739dd2",
        "narrow speculation#1": "ac4f8da0b378388e",
        "wide speculation#1": "bda4f7d81372879c",
    },
    "gen07": {
        "narrow baseline": "186bf175e8fb6aff",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "55aa888d6d57a7db",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "2cbf2965417090ef",
        "wide associativity#0": "901638884bd58c3b",
        "narrow associativity#1": "2cbf2965417090ef",
        "wide associativity#1": "901638884bd58c3b",
        "narrow branch_elim#0": "449303250231dd59",
        "wide branch_elim#0": "3199a31f7af11d46",
        "narrow commutativity#0": "f5e4b15e6b5f4c3e",
        "wide commutativity#0": "641d11dcedf36eec",
        "narrow commutativity#1": "f5e4b15e6b5f4c3e",
        "wide commutativity#1": "641d11dcedf36eec",
        "narrow constprop#0": "7b23b7be6b331c18",
        "wide constprop#0": "a9e5f968f39f01bf",
        "narrow constprop#1": "f5e4b15e6b5f4c3e",
        "wide constprop#1": "4a9427ca0359c997",
        "narrow cse#0": "f5e4b15e6b5f4c3e",
        "wide cse#0": "641d11dcedf36eec",
        "narrow distributivity#0": "f0de4cf7864dd259",
        "wide distributivity#0": "c9d1cf83635fd685",
        "narrow speculation#0": "f5e4b15e6b5f4c3e",
        "wide speculation#0": "4a9427ca0359c997",
        "narrow speculation#1": "892195a5b015ee4f",
        "wide speculation#1": "641d11dcedf36eec",
        "narrow strength#0": "28c89570113ecbd5",
        "wide strength#0": "d6a2786b406d8675",
    },
    "gen08": {
        "narrow baseline": "e6842b7d1d79a134",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "8d5bb09dbddfc4bc",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "976b7adea0428fc5",
        "wide associativity#0": "9e3b3d7664bde80f",
        "narrow associativity#1": "418fb9d633bd3dd4",
        "wide associativity#1": "5078bad381b387cd",
        "narrow commutativity#0": "cb204bbe4501b80c",
        "wide commutativity#0": "c85cdd347a9ef314",
        "narrow commutativity#1": "cb204bbe4501b80c",
        "wide commutativity#1": "c85cdd347a9ef314",
        "narrow constprop#0": "e684c3987ee78ddd",
        "wide constprop#0": "2b96cfe875529f4a",
        "narrow constprop#1": "8d39eb60d32ccca4",
        "wide constprop#1": "4965dd32c2a0068c",
        "narrow cse#0": "cb204bbe4501b80c",
        "wide cse#0": "c85cdd347a9ef314",
        "narrow distributivity#0": "03c37fcbfec99d82",
        "wide distributivity#0": "1abaf5880e8c90b9",
        "narrow distributivity#1": "03c37fcbfec99d82",
        "wide distributivity#1": "1abaf5880e8c90b9",
        "narrow hoist#0": "91e0f6a967c65d63",
        "wide hoist#0": "2abc2946b7bee601",
        "narrow hoist#1": "ba9c636d76a7926e",
        "wide hoist#1": "c1d6f9607117ebc6",
        "narrow spec_unroll#0": "83986d3bc8ec45c0",
        "wide spec_unroll#0": "3168fb1066d7895a",
        "narrow spec_unroll#1": "80c8dfcac38403cf",
        "wide spec_unroll#1": "1bbecc20c6ce8300",
        "narrow speculation#0": "cb204bbe4501b80c",
        "wide speculation#0": "c85cdd347a9ef314",
        "narrow speculation#1": "cb204bbe4501b80c",
        "wide speculation#1": "c85cdd347a9ef314",
        "narrow strength#0": "e684c3987ee78ddd",
        "wide strength#0": "2b96cfe875529f4a",
        "narrow strength#1": "03c37fcbfec99d82",
        "wide strength#1": "1abaf5880e8c90b9",
        "narrow unroll#0": "dd9440558c9cd603",
        "wide unroll#0": "79f1b30cc76ba04e",
    },
    "gen09": {
        "narrow baseline": "f96c3f15364345d8",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "4d8edfae6194b40e",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "52c74c0a804e31d5",
        "wide associativity#0": "524dea5d82573b13",
        "narrow associativity#1": "3e345f22cedfffe7",
        "wide associativity#1": "fa30d4869dba0cf5",
        "narrow commutativity#0": "e8ef22f95162c7f6",
        "wide commutativity#0": "c2376f0f287e7d86",
        "narrow commutativity#1": "e8ef22f95162c7f6",
        "wide commutativity#1": "c2376f0f287e7d86",
        "narrow constprop#0": "11149bb5b58c54e8",
        "wide constprop#0": "9ba3f6647bd05db5",
        "narrow constprop#1": "febe52f0d3e0afeb",
        "wide constprop#1": "edd4976ead0c0e2b",
        "narrow cse#0": "e8ef22f95162c7f6",
        "wide cse#0": "c2376f0f287e7d86",
        "narrow cse#1": "e8ef22f95162c7f6",
        "wide cse#1": "c2376f0f287e7d86",
        "narrow distributivity#0": "e8ef22f95162c7f6",
        "wide distributivity#0": "c2376f0f287e7d86",
        "narrow distributivity#1": "58887fb6a514bcee",
        "wide distributivity#1": "31ac7befb7f51de9",
        "narrow hoist#0": "a4f2751d98b09e3d",
        "wide hoist#0": "5f2efc240dd9239b",
        "narrow hoist#1": "c76916f9fb18e60a",
        "wide hoist#1": "df10f152fe0f52ce",
        "narrow spec_unroll#0": "835358daf9d74188",
        "wide spec_unroll#0": "d30018cc624b9abb",
        "narrow speculation#0": "e8ef22f95162c7f6",
        "wide speculation#0": "c2376f0f287e7d86",
        "narrow speculation#1": "e8ef22f95162c7f6",
        "wide speculation#1": "c2376f0f287e7d86",
    },
    "gen10": {
        "narrow baseline": "777a054f1fd657aa",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "b21b89ff9bb2192c",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "d1a287854066a8e4",
        "wide associativity#0": "9a219107350241ef",
        "narrow associativity#1": "d1a287854066a8e4",
        "wide associativity#1": "9a219107350241ef",
        "narrow commutativity#0": "f5ffa04e38b3b516",
        "wide commutativity#0": "8db3ec0bbafce152",
        "narrow commutativity#1": "f5ffa04e38b3b516",
        "wide commutativity#1": "8db3ec0bbafce152",
        "narrow constprop#0": "215d2c009a24461e",
        "wide constprop#0": "6dafff25a1bbe004",
        "narrow constprop#1": "eada6331eea6e93c",
        "wide constprop#1": "8db3ec0bbafce152",
        "narrow cse#0": "f5ffa04e38b3b516",
        "wide cse#0": "8db3ec0bbafce152",
        "narrow cse#1": "f5ffa04e38b3b516",
        "wide cse#1": "8db3ec0bbafce152",
        "narrow distributivity#0": "5fdc72c90da4cba1",
        "wide distributivity#0": "488e1d20b30b4ae7",
        "narrow distributivity#1": "f5ffa04e38b3b516",
        "wide distributivity#1": "8db3ec0bbafce152",
        "narrow hoist#0": "d096393e60e489b7",
        "wide hoist#0": "bb24f6085a59c5bb",
        "narrow hoist#1": "9a32506aa1467297",
        "wide hoist#1": "a90b6cd10ae4d6b2",
        "narrow spec_unroll#0": "c1dc254f01a4216f",
        "wide spec_unroll#0": "8f8084914ba3a772",
        "narrow spec_unroll#1": "7589c68c34c304b4",
        "wide spec_unroll#1": "ddcb672a72d879a6",
        "narrow speculation#0": "f5ffa04e38b3b516",
        "wide speculation#0": "8db3ec0bbafce152",
        "narrow speculation#1": "f5ffa04e38b3b516",
        "wide speculation#1": "8db3ec0bbafce152",
        "narrow strength#0": "215d2c009a24461e",
        "wide strength#0": "6dafff25a1bbe004",
        "narrow strength#1": "0ef2e2dfb3afde19",
        "wide strength#1": "6dce015a462f778e",
        "narrow unroll#0": "a15c3c40b3b91464",
        "wide unroll#0": "e88031825cea3e3d",
    },
    "gen11": {
        "narrow baseline": "2d50a2091beab9b7",
        "narrow max_steps=40": "c87ed502e65a3284",
        "wide baseline": "548d7cd831978521",
        "wide max_steps=40": "c87ed502e65a3284",
        "narrow associativity#0": "e6d396034e7d5a43",
        "wide associativity#0": "8dc3adc815cece78",
        "narrow associativity#1": "e6d396034e7d5a43",
        "wide associativity#1": "8dc3adc815cece78",
        "narrow commutativity#0": "7ceae36287c9dcc2",
        "wide commutativity#0": "668f6c9b44a30e3c",
        "narrow commutativity#1": "7ceae36287c9dcc2",
        "wide commutativity#1": "668f6c9b44a30e3c",
        "narrow constprop#0": "63969e46114a667f",
        "wide constprop#0": "145cda4624c75508",
        "narrow constprop#1": "14341258c0e45904",
        "wide constprop#1": "b8bdd5727b76d88b",
        "narrow cse#0": "7ceae36287c9dcc2",
        "wide cse#0": "668f6c9b44a30e3c",
        "narrow cse#1": "7ceae36287c9dcc2",
        "wide cse#1": "668f6c9b44a30e3c",
        "narrow distributivity#0": "071e791745285052",
        "wide distributivity#0": "584637a7292a2876",
        "narrow hoist#0": "6451628b45b9b908",
        "wide hoist#0": "b43684912ec384b2",
        "narrow hoist#1": "4a10803672e4b873",
        "wide hoist#1": "7d80809d3a38ea4e",
        "narrow spec_unroll#0": "dcd0530b2757d459",
        "wide spec_unroll#0": "764aa4994e939cba",
        "narrow speculation#0": "51d9206cf352c397",
        "wide speculation#0": "314f3342c73bfb08",
        "narrow speculation#1": "7ceae36287c9dcc2",
        "wide speculation#1": "668f6c9b44a30e3c",
        "narrow strength#0": "e3929e5b5b64f7c1",
        "wide strength#0": "fc45570d85216e66",
        "narrow strength#1": "e5212baaf5c06302",
        "wide strength#1": "52145528039e1106",
    },
}


@pytest.mark.parametrize("name", BENCH)
def test_bench_runs_match_golden(name):
    assert bench_hashes(name) == GOLDEN[name]


@pytest.mark.parametrize("seed", GEN_SEEDS)
def test_generated_runs_match_golden(seed):
    assert gen_hashes(seed) == GOLDEN[f"gen{seed:02d}"]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, str]] = {")
    for _key, _table in all_hashes().items():
        print(f'    "{_key}": {{')
        for _label, _digest in _table.items():
            print(f'        "{_label}": "{_digest}",')
        print("    },")
    print("}")
