"""Golden schedules: absolute STGs of the bench circuits stay pinned.

Every other scheduler test compares two paths that share the placement
kernel (warm vs. cold cache, serial vs. pool), so a change to where
ops land would pass them unnoticed.  This file pins the schedules
themselves: for each of the six bench circuits, the baseline and every
first-generation candidate (``default_library().candidates``, sorted by
``sort_key`` and applied to the input) is scheduled under the circuit's
allocation, ``sched`` config and profiled branch probabilities, and the
SHA-256 of ``stg.to_dot()`` plus the average length (6 decimals) must
match the hash recorded below.

When a transformation or the scheduler legitimately changes a schedule,
regenerate the table and review the diff::

    PYTHONPATH=src python tests/sched/test_schedule_golden.py

It prints a fresh ``GOLDEN`` dict to paste over the one below.
"""

import hashlib
from typing import Dict

import pytest

from repro.bench.circuits import circuit
from repro.errors import ScheduleError
from repro.hw import dac98_library
from repro.profiling import profile
from repro.sched import schedule_behavior
from repro.transforms import default_library

CIRCUITS = ("fir", "gcd", "igf", "pps", "sintran", "test2")


def schedule_hashes(name: str) -> Dict[str, str]:
    """``{label: sha256}`` for the circuit's baseline and candidates."""
    c = circuit(name)
    beh = c.behavior()
    probs = dict(profile(beh, c.traces(beh)).branch_probs)
    lib = dac98_library()

    def digest(behavior) -> str:
        try:
            res = schedule_behavior(behavior, lib, c.allocation, c.sched,
                                    probs)
        except ScheduleError:
            return "unschedulable"
        text = f"{res.stg.to_dot()}\n{res.average_length():.6f}"
        return hashlib.sha256(text.encode()).hexdigest()

    out = {"baseline": digest(beh)}
    cands = sorted(default_library().candidates(beh),
                   key=lambda cand: cand.sort_key)
    for i, cand in enumerate(cands):
        out[f"{i:02d} {cand.transform}"] = digest(cand.apply(beh))
    return out


GOLDEN: Dict[str, Dict[str, str]] = {
    "fir": {
        "baseline":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "00 associativity":
            "effe954b4ea1550ead1d63e3cf9dedf560644347647af4b5dd7016d8a932cdbb",
        "01 associativity":
            "d6d7f741cc19c27fd34737cef59e7dc599316e6f644f3affa517d132d1b8ee85",
        "02 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "03 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "04 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "05 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "06 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "07 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "08 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "09 commutativity":
            "0963fb44a77afc790cdda15e22342b479adc923f08241a9a2d7e661036fe9230",
        "10 constprop":
            "a2c51dae36c8b37bd2e8553a64c001a10b76858b4e291c2bb9919a42bb47a605",
        "11 spec_unroll":
            "1d75068f2d6f055edb450c981a826c05aaca8f5cc6d4948c5b20800e94af29a2",
        "12 strength":
            "a2c51dae36c8b37bd2e8553a64c001a10b76858b4e291c2bb9919a42bb47a605",
        "13 strength":
            "09878b031d9dcfb89a4fa2b4cd531ac33bc920ca1b5d121ae465453ffb17e9e7",
        "14 strength":
            "135dcd68fc98234ad645697a6bbca70a77af5898ae5568bb6b102bf78db824bf",
        "15 strength":
            "6377c5b1cdc422cbbbf78f8da4ac074a93edc824b03f84c8f0f69745845713e8",
        "16 strength":
            "4874549f6268c39a0d26a614d721d6a54d9951295e0e80e3503fc40607697119",
        "17 strength":
            "d237a224175090153324c59c5420b8a945575764a48bc7558b3b3d0a82bdf650",
        "18 unroll":
            "a5613a676771ee7c2591d5a68910286fe6ae1e35fc15cbf3c31cbcf627ab0d7d",
        "19 unroll":
            "d685443b1a0c0b019954f3ef757fc7b2b600eed8e2e7f8beec91d963a842344c",
    },
    "gcd": {
        "baseline":
            "0dbee85980a5a96dc654c18586ebb037cff51cc13224894d28fe3e8655e33625",
        "00 commutativity":
            "0dbee85980a5a96dc654c18586ebb037cff51cc13224894d28fe3e8655e33625",
        "01 commutativity":
            "0dbee85980a5a96dc654c18586ebb037cff51cc13224894d28fe3e8655e33625",
        "02 spec_unroll":
            "d2044bb6a3b3e32b0cde498de2fea278fa6bfa4c70d452a6cb27560fe6a8b55e",
        "03 speculation":
            "ed9d566d35e09c1d5041a07200c0ea3a24413adbbeac0924ec6a6e6007893a10",
        "04 speculation":
            "2bd89334f4e3751e636e6f512ca003745ed57e48c6b8a0fd26c1006a22a96bf1",
    },
    "igf": {
        "baseline":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "00 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "01 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "02 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "03 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "04 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "05 commutativity":
            "584ebcbe6c87a323f4611f6971f91a0631ad86cbd46df7b74edabece85647af1",
        "06 distributivity":
            "4a28a175986727c5d89a0c0036962c5379717020026950c95cf1304fdbd37e7d",
        "07 spec_unroll":
            "d2cd3c8065e77729370329b648f6536fd68b3001cb067209e075f317e64c68eb",
        "08 strength":
            "9f5ad77df7ec404239573a6703434c572e1f224f45e3afbe9a314737ea0d707c",
    },
    "pps": {
        "baseline":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "00 associativity":
            "b2c3a45306db540e37e974790b36c6520f39f921b57da3131664c156999bbdf3",
        "01 associativity":
            "b2c3a45306db540e37e974790b36c6520f39f921b57da3131664c156999bbdf3",
        "02 associativity":
            "a1e46ead5a6fa9f00f4188631176ec34a7a973d0d560ae875678eaa7dd649d74",
        "03 associativity":
            "a1e46ead5a6fa9f00f4188631176ec34a7a973d0d560ae875678eaa7dd649d74",
        "04 associativity":
            "9350417ae49b03c89f82912714960ce748e8f6d190b5edfcc5314930dd51d79f",
        "05 associativity":
            "9350417ae49b03c89f82912714960ce748e8f6d190b5edfcc5314930dd51d79f",
        "06 associativity":
            "b166f76e291d3ac4a58ad312faa5c16cc4851c200b04fd94ea526caeb1c9c63d",
        "07 associativity":
            "b166f76e291d3ac4a58ad312faa5c16cc4851c200b04fd94ea526caeb1c9c63d",
        "08 associativity":
            "9c431410ea432e57078738a544eb45773278516d76db5290c5b8644d76874863",
        "09 associativity":
            "9c431410ea432e57078738a544eb45773278516d76db5290c5b8644d76874863",
        "10 associativity":
            "99516d31139b74f67652297f0cf93d362414ee8c1339bbb0c5e7e84f418ce851",
        "11 associativity":
            "99516d31139b74f67652297f0cf93d362414ee8c1339bbb0c5e7e84f418ce851",
        "12 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "13 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "14 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "15 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "16 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "17 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
        "18 commutativity":
            "5d1ac2c989e04e0b3cad01e699ff90272acea90302ed1d7095d8342b62e86292",
    },
    "sintran": {
        "baseline":
            "e6e72616d4a0eb1b8f4a683b90e52a502294a200d6b113d005fd24259b6c477d",
        "00 associativity":
            "a6b7ea2aaaae6f8b7dc5325faab646a4c4dd9169fd7e4ba2f5c745de756126f5",
        "01 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "02 commutativity":
            "e6e72616d4a0eb1b8f4a683b90e52a502294a200d6b113d005fd24259b6c477d",
        "03 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "04 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "05 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "06 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "07 commutativity":
            "e6e72616d4a0eb1b8f4a683b90e52a502294a200d6b113d005fd24259b6c477d",
        "08 commutativity":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "09 cse":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "10 spec_unroll":
            "803d8d54a5df847f6f7cb93cc4bb55e215c38ab67a9182346375e82e74d127db",
        "11 speculation":
            "4ece9ef4028cb60d3ef88be5017c9510d1cfe4ad271040e3507c673b1d60edfa",
        "12 speculation":
            "5c945d20a06ef40488f6f4de413e20c405df019a68b222faab466cb7a81672a0",
        "13 speculation":
            "64ea5320295aaea86b979ba55b874c51e10beb927cf92d3889aa169b7741baca",
        "14 strength":
            "1ccf884a6ce64fed58be0549fba071b4e85b3bbc48ec036f35c5be19086789d8",
        "15 unroll":
            "f1cb36ac94f54be39abb322d229c0ec9c3a47fc2391522d38ac513cc8ab931de",
        "16 unroll":
            "cac5e4721a957db8b0ee5aa68f7217a078902cd0d7132bfd80e40d900a04f222",
    },
    "test2": {
        "baseline":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "00 associativity":
            "6c01bae72030be6a51260eeb606b4d180f298c24b5e07e0e17fa72acdec8bce4",
        "01 associativity":
            "996895a48d84ad0208cfb43a1c1f7b9687fc7eac1d9ec5bb0b73d58559cc0955",
        "02 commutativity":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "03 commutativity":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "04 commutativity":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "05 commutativity":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "06 commutativity":
            "a9d0cf04e3375f046e52a872d10f9e65f00a033a1fbb6568b31158094a8ed639",
        "07 spec_unroll":
            "ccc8af64ff396b3568ec4334e792eee0b6e2c11cd3fdd3456122407b55020876",
        "08 spec_unroll":
            "479dab108ceb1c950c6cc655c3fe7bf4fd0afa30ab98aafa60a077ae1a59d5ce",
        "09 unroll":
            "41674cf40a311558ade5441a40cbd6ab3b6cf2a0d67cc377e3997bf72a6c834e",
        "10 unroll":
            "eed3362b3551f4624712ca9e79e909029ec87ed35285f2a4a689799223383743",
        "11 unroll":
            "bb66ec9f90ad0e4260032a0d31817eaa8319a9f91f1f118f1467ed279206d4af",
        "12 unroll":
            "9f36166cf3d6f6e313db1ed938b9a9fe04df60d16763a58e4a987cb09eda79e9",
    },
}


@pytest.mark.parametrize("name", CIRCUITS)
def test_schedules_match_golden(name):
    assert schedule_hashes(name) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, str]] = {")
    for _name in CIRCUITS:
        print(f'    "{_name}": {{')
        for _label, _digest in schedule_hashes(_name).items():
            print(f'        "{_label}":')
            print(f'            "{_digest}",')
        print("    },")
    print("}")
