"""Hardware library model tests."""

import pytest

from repro.cdfg import OpKind
from repro.errors import PowerError
from repro.hw import (Allocation, dac98_library, memory_resource_name,
                      table1_allocation, table1_library)


class TestLibraries:
    def test_table1_matches_paper(self):
        lib = table1_library()
        assert lib.fu_types["comp1"].delay == 12.0
        assert lib.fu_types["comp1"].energy == 1.1
        assert lib.fu_types["w_mult1"].delay == 23.0
        assert lib.register.energy == 0.3
        assert lib.memory.energy == 1.9

    def test_dac98_delays_match_section5(self):
        lib = dac98_library()
        expected = {"a1": 10, "sb1": 10, "mt1": 23, "cp1": 10, "e1": 5,
                    "i1": 5, "n1": 2, "s1": 10}
        for name, delay in expected.items():
            assert lib.fu_types[name].delay == delay

    def test_selection_covers_arithmetic(self):
        lib = dac98_library()
        for kind in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.LT,
                     OpKind.EQ, OpKind.INC, OpKind.SHL):
            assert lib.fu_for(kind) is not None

    def test_free_kinds_have_no_fu(self):
        lib = dac98_library()
        for kind in (OpKind.JOIN, OpKind.COPY, OpKind.CONST):
            assert lib.fu_for(kind) is None

    def test_delay_of_memory_ops(self):
        lib = dac98_library()
        assert lib.delay_of(OpKind.LOAD) == lib.memory.delay
        assert lib.delay_of(OpKind.STORE) == lib.memory.delay


class TestVddScaledLibrary:
    def test_lower_vdd_slows_everything(self):
        lib = dac98_library()
        slow = lib.scaled(3.3)
        for name in lib.fu_types:
            assert slow.fu_types[name].delay \
                > lib.fu_types[name].delay
        assert slow.register.delay > lib.register.delay

    def test_nominal_vdd_is_identity(self):
        lib = dac98_library()
        same = lib.scaled(5.0)
        for name in lib.fu_types:
            assert same.fu_types[name].delay \
                == pytest.approx(lib.fu_types[name].delay)

    def test_scaling_preserves_energy_constants(self):
        lib = dac98_library()
        assert lib.scaled(3.0).fu_types["a1"].energy \
            == lib.fu_types["a1"].energy

    def test_vdd_below_vt_rejected(self):
        with pytest.raises(PowerError):
            dac98_library().scaled(0.9)


class TestAllocation:
    def test_table1_allocation_counts(self):
        alloc = table1_allocation()
        assert alloc.count("comp1") == 2
        assert alloc.count("w_mult1") == 1
        assert alloc.count("missing") == 0

    def test_copy_is_independent(self):
        a = Allocation({"a1": 2})
        b = a.copy()
        b.counts["a1"] = 9
        assert a.count("a1") == 2

    def test_memory_resource_name(self):
        assert memory_resource_name("buf") == "mem:buf"
