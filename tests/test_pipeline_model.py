"""Unit tests for the pipeline timing model in isolation.

Each test issues a hand-built sequence and pins both the exact issue
cycles and the exact hazard kinds the model charges them to (the
non-zero entries of ``cycle_breakdown``).
"""

from repro.backend.insts import Imm, Lab, Reg
from repro.cgg import build_target
from repro.machine.registers import PhysReg
from repro.sim.cache import DirectMappedCache
from repro.sim.pipeline import PipelineModel

from tests.helpers import build as instr

#: two issue units, each owned by one instruction, and two packing
#: classes: ``addi`` and ``subi`` share no resource and no class, while
#: ``ori`` shares ``addi``'s class
PACKING_MARIL = r"""
declare {
    %reg r[0:7] (int);
    %resource IU;
    %resource FU;
    %def c16 [-32768:32767];
    %memory m[0:65535];
}
cwvm {
    %general (int) r;
    %allocable r[1:5];
    %sp r[7] +down;
    %fp r[6] +down;
    %result r[1] (int);
}
instr {
    %element wide, narrow;
    %instr addi r, r, #c16 (int) {$1 = $2 + $3;} [IU] (1,1,0) <wide>;
    %instr subi r, r, #c16 (int) {$1 = $2 - $3;} [FU] (1,1,0) <narrow>;
    %instr ori r, r, #c16 (int) {$1 = $2 | $3;} [FU] (1,1,0) <wide>;
}
"""


def _reg(set_name, index):
    return Reg(PhysReg(set_name, index))


def _charged(model):
    """The hazard kinds the model charged cycles to."""
    return {kind: n for kind, n in model.cycle_breakdown.items() if n}


def test_independent_ops_serialize_on_single_issue(toyp):
    model = PipelineModel(toyp)
    one = instr(toyp, "addi", _reg("r", 2), _reg("r", 6), Imm(1))
    two = instr(toyp, "addi", _reg("r", 3), _reg("r", 6), Imm(2))
    cycles = [model.issue(one, []), model.issue(two, [])]
    assert cycles == [0, 1]  # both need IF on cycle 0
    assert _charged(model) == {"resource": 1}


def test_interlock_on_producer_latency(toyp):
    model = PipelineModel(toyp)
    load = instr(toyp, "ld", _reg("r", 2), _reg("r", 6), Imm(0))
    use = instr(toyp, "addi", _reg("r", 3), _reg("r", 2), Imm(1))
    cycles = [model.issue(load, [(4096, False, 4)]), model.issue(use, [])]
    assert cycles == [0, 3]  # ld latency
    assert _charged(model) == {"load_use": 3}


def test_aux_latency_applies_at_runtime(toyp):
    model = PipelineModel(toyp)
    fadd = instr(toyp, "fadd.d", _reg("d", 1), _reg("d", 2), _reg("d", 3))
    store = instr(toyp, "st.d", _reg("d", 1), _reg("r", 6), Imm(0))
    cycles = [model.issue(fadd, []), model.issue(store, [(4096, True, 8)])]
    assert cycles == [0, 7]  # %aux fadd.d : st.d (7)
    assert _charged(model) == {"latency": 7}


def test_pair_alias_interlock(toyp):
    """Writing d[1] delays a reader of r[2] (shared unit)."""
    model = PipelineModel(toyp)
    fadd = instr(toyp, "fadd.d", _reg("d", 1), _reg("d", 2), _reg("d", 3))
    reader = instr(toyp, "addi", _reg("r", 4), _reg("r", 2), Imm(0))
    cycles = [model.issue(fadd, []), model.issue(reader, [])]
    assert cycles == [0, 6]
    assert _charged(model) == {"latency": 6}


def test_taken_transfer_redirects_fetch(toyp):
    model = PipelineModel(toyp)
    branch = instr(toyp, "beq0", _reg("r", 2), Lab("L"))
    follower = instr(toyp, "addi", _reg("r", 3), _reg("r", 6), Imm(1))
    first = model.issue(branch, [])
    model.transfer(branch, first)
    assert [first, model.issue(follower, [])] == [0, 2]  # beq0 latency
    assert _charged(model) == {"branch": 2}


def test_cache_miss_extends_result_latency(r2000):
    cache = DirectMappedCache(size=256, line=16, miss_penalty=20)
    model = PipelineModel(r2000, cache)
    load = instr(r2000, "lw", _reg("r", 8), _reg("r", 30), Imm(0))
    use = instr(r2000, "addiu", _reg("r", 9), _reg("r", 8), Imm(1))
    # cold: the load misses, and its use waits the latency plus the miss
    cycles = [model.issue(load, [(8192, False, 4)]), model.issue(use, [])]
    assert cycles == [0, 2 + 20]
    assert _charged(model) == {"load_use": 2, "cache_miss": 20}


def test_cache_hit_costs_nothing_extra(r2000):
    cache = DirectMappedCache(size=256, line=16, miss_penalty=20)
    model = PipelineModel(r2000, cache)
    warm = instr(r2000, "lw", _reg("r", 8), _reg("r", 30), Imm(0))
    again = instr(r2000, "lw", _reg("r", 10), _reg("r", 30), Imm(4))
    use = instr(r2000, "addiu", _reg("r", 9), _reg("r", 10), Imm(1))
    cycles = [
        model.issue(warm, [(8192, False, 4)]),
        model.issue(again, [(8196, False, 4)]),  # same line: hit
        model.issue(use, []),
    ]
    assert cycles == [0, 1, 3]
    assert _charged(model) == {"resource": 1, "load_use": 2}


def test_store_does_not_stall_on_miss(r2000):
    """Write-through stores complete without a refill stall."""
    cache = DirectMappedCache(size=256, line=16, miss_penalty=20)
    model = PipelineModel(r2000, cache)
    store = instr(r2000, "sw", _reg("r", 8), _reg("r", 30), Imm(0))
    follower = instr(r2000, "addiu", _reg("r", 9), _reg("r", 6), Imm(1))
    cycles = [model.issue(store, [(8192, True, 4)]), model.issue(follower, [])]
    assert cycles == [0, 1]
    assert _charged(model) == {"resource": 1}


def test_i860_core_and_fp_coissue(i860):
    model = PipelineModel(i860)
    core = instr(i860, "addsi", _reg("r", 16), _reg("r", 17), Imm(1))
    sub = instr(i860, "A1", _reg("d", 4), _reg("d", 5))
    assert [model.issue(core, []), model.issue(sub, [])] == [0, 0]
    assert _charged(model) == {}


def test_i860_incompatible_classes_split_cycles(i860):
    """A1 and A1S share the FA1 field, which blocks first, so the stall is
    a resource one and their disjoint classes are never consulted."""
    model = PipelineModel(i860)
    a1 = instr(i860, "A1", _reg("d", 4), _reg("d", 5))
    a1s = instr(i860, "A1S", _reg("d", 6), _reg("d", 7))
    assert [model.issue(a1, []), model.issue(a1s, [])] == [0, 1]
    assert _charged(model) == {"resource": 1}


def test_disjoint_packing_classes_split_cycles():
    """Disjoint resources but disjoint classes: a packing stall."""
    target = build_target(PACKING_MARIL, name="packing")
    addi = instr(target, "addi", _reg("r", 1), _reg("r", 2), Imm(1))
    subi = instr(target, "subi", _reg("r", 3), _reg("r", 4), Imm(2))
    ori = instr(target, "ori", _reg("r", 3), _reg("r", 4), Imm(2))
    model = PipelineModel(target)
    assert [model.issue(addi, []), model.issue(subi, [])] == [0, 1]
    assert _charged(model) == {"packing": 1}
    # with a shared class the same pair of units co-issues
    model = PipelineModel(target)
    assert [model.issue(addi, []), model.issue(ori, [])] == [0, 0]
    assert _charged(model) == {}


def test_temporal_producer_latency(i860):
    model = PipelineModel(i860)
    m1 = instr(i860, "M1", _reg("d", 4), _reg("d", 5))
    m2 = instr(i860, "M2")
    assert [model.issue(m1, []), model.issue(m2, [])] == [0, 1]
    assert _charged(model) == {"fp_advance": 1}


def test_memory_ordering_load_after_store(toyp):
    model = PipelineModel(toyp)
    store = instr(toyp, "st", _reg("r", 2), _reg("r", 6), Imm(0))
    load = instr(toyp, "ld", _reg("r", 3), _reg("r", 6), Imm(0))
    cycles = [
        model.issue(store, [(4096, True, 4)]),
        model.issue(load, [(4096, False, 4)]),
    ]
    assert cycles == [0, 1]
    assert _charged(model) == {"memory_order": 1}


def test_bookkeeping_pruned_on_long_runs(toyp):
    model = PipelineModel(toyp)
    for index in range(600):
        add = instr(
            toyp, "addi", _reg("r", 2), _reg("r", 6), Imm(index % 100)
        )
        assert model.issue(add, []) == index
    # the resource ring is fixed-size and class bookkeeping is pruned
    assert len(model.ring_cycle) == len(model.ring_mask)
    assert len(model.cycle_classes) < 400  # pruned, not 600+
    assert model.cycles == 600
    assert _charged(model) == {"resource": 599}
