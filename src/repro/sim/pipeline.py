"""In-order pipeline timing model.

Charges cycles to a dynamic instruction stream using the same Maril-derived
resource vectors, latencies, ``%aux`` overrides and packing classes the
scheduler used — but observed at run time, the way the hardware would:

* an instruction cannot issue before its operands are ready (register
  interlock; the DECstation's R3000-style behaviour);
* it cannot issue on a cycle where its resource vector collides with
  resources already committed (structural hazard, section 4.3);
* several instructions may issue on one cycle when resources are disjoint
  and packing classes intersect (dual-issue i860, sections 4.3/4.5);
* taken control transfers redirect the fetch stream after the producer's
  latency (delay-slot instructions issue in the gap);
* data-cache misses stretch a load's result latency.

Every cycle the issue point advances is charged to one hazard kind of
:data:`repro.obs.stalls.SIM_STALL_KINDS`, so over a whole run
``sum(cycle_breakdown.values()) == cycles - 1``.  The raises are
telescoped in program order — branch redirect first, then register
interlock (split into load-use / fp-advance / cache-miss / plain
latency), then memory ordering, then the structural scan (split into
resource and packing-class conflicts).  On a single-issue machine the
``resource`` kind therefore *includes* plain issue-slot serialization
(about one cycle per instruction): the issue stage is itself a committed
resource, which is exactly how the hardware sees it.

This is the simulator's hottest loop (one :meth:`PipelineModel.issue` per
dynamic instruction), so everything static about an instruction is
*predecoded* once into a :class:`_Decoded` record — operand register
units, per-cycle composite resource masks (pool-free fast path), packing
classes, memory flags — and producer→consumer latencies are memoized per
(producer mnemonic, produced register, consumer instruction).
"""

from __future__ import annotations

from repro.backend.insts import MachineInstr, Reg
from repro.machine.registers import PhysReg
from repro.machine.resources import commit, conflicts
from repro.machine.target import TargetMachine
from repro.obs.stalls import (
    BRANCH,
    CACHE_MISS,
    FP_ADVANCE,
    LATENCY_KIND,
    LOAD_USE,
    MEMORY_ORDER,
    PACKING,
    RESOURCE,
    SIM_STALL_KINDS,
)
from repro.sim.cache import DirectMappedCache

#: per-cycle resource words live in a tagged ring (cycle tag + busy mask),
#: so the hot hazard scan is two list indexings instead of a dict probe.
#: The window is safe because scans never look below ``last_issue`` and
#: commits never reach more than a vector length past it — far less than
#: the ring size — so a stale slot can never alias a live cycle.
_RING = 1024
_RING_MASK = _RING - 1


class _Decoded:
    """Static per-instruction facts, computed once per instruction id."""

    __slots__ = (
        "use_units",
        "def_entries",
        "implicit_defs",
        "masks",
        "vector",
        "classes",
        "temporal_reads",
        "temporal_writes",
        "reads_memory",
        "writes_memory",
        "mnemonic",
        "lat_memo",
    )


class PipelineModel:
    """Charges cycles to a dynamic instruction stream (one per run)."""

    def __init__(
        self,
        target: TargetMachine,
        cache: DirectMappedCache | None = None,
        static: dict | None = None,
    ):
        self.target = target
        self.registers = target.registers
        self.cache = cache
        self.last_issue = 0
        self.redirect_floor = 0  # earliest issue after a taken transfer
        #: unit key -> (ready, (mnemonic, produced reg) token, miss_extra):
        #: ``ready`` is the producer's issue cycle plus any cache-miss
        #: stretch, and ``miss_extra`` is that stretch, remembered so an
        #: interlock can be split between the miss and the latency
        self.producers: dict = {}
        self.temporal_producers: dict[str, tuple[int, str]] = {}
        self.ring_cycle: list[int] = [-1] * _RING
        self.ring_mask: list[int] = [0] * _RING
        self.cycle_classes: dict[int, frozenset] = {}
        self.last_store_issue = -1
        self.last_load_issue = -1
        self._horizon = 0  # cycles below this have been pruned
        #: highest cycle holding any committed resource or packing class —
        #: cycles beyond it cannot conflict, so hazard scans stop there
        self._frontier = -1
        #: instr.id -> _Decoded.  ``static`` lets callers share one decode
        #: table across model instances of one target (the simulator
        #: hoists it to the executable, so repeated runs and every
        #: block-timing replay stop re-decoding the program)
        self._static: dict[int, _Decoded] = {} if static is None else static
        #: producer mnemonic -> latency (temporal reads)
        self._mnemonic_latency: dict[str, int] = {}
        #: hazard kind -> cycles charged so far, in SIM_STALL_KINDS order
        self.kind_cycles: dict[str, int] = {
            kind: 0 for kind in SIM_STALL_KINDS
        }

    @property
    def cycle_breakdown(self) -> dict[str, int]:
        """Stall kind -> attributed cycles (zero entries included)."""
        return dict(self.kind_cycles)

    # -- predecode --------------------------------------------------------------

    def _unit_keys(self, reg) -> tuple[int, ...]:
        """Interned (file, unit) pairs: a single int hashes much faster."""
        return tuple(
            (file_id << 24) | unit
            for file_id, unit in self.registers.units_of(reg)
        )

    def _decode(self, instr: MachineInstr) -> _Decoded:
        """Build (and memoize) the static facts for one instruction."""
        desc = instr.desc
        unit_keys = self._unit_keys
        use_units = []
        for position in desc.use_operands:
            operand = instr.operands[position]
            if isinstance(operand, Reg) and isinstance(operand.reg, PhysReg):
                use_units.extend(unit_keys(operand.reg))
        for reg in instr.implicit_uses:
            use_units.extend(unit_keys(reg))
        # producer *tokens* are long-lived (mnemonic, reg) tuples: consumers
        # key their latency memo on the token's identity, which hashes as
        # an int instead of re-hashing a PhysReg on every operand check
        def_entries = []
        for position in desc.def_operands:
            operand = instr.operands[position]
            if isinstance(operand, Reg) and isinstance(operand.reg, PhysReg):
                def_entries.append(
                    (unit_keys(operand.reg), (desc.mnemonic, operand.reg))
                )

        decoded = _Decoded()
        decoded.use_units = tuple(use_units)
        decoded.def_entries = tuple(def_entries)
        decoded.implicit_defs = tuple(
            (unit_keys(reg), (desc.mnemonic, reg))
            for reg in instr.implicit_defs
        )
        decoded.lat_memo = {}  # id(token) -> (latency, producer is a load)
        fastpath = desc.vector_fastpath()
        decoded.masks = (
            None
            if fastpath is None
            else tuple(
                (offset, mask) for offset, mask in enumerate(fastpath) if mask
            )
        )
        decoded.vector = desc.resource_vector
        decoded.classes = desc.classes or None
        decoded.temporal_reads = desc.temporal_reads
        decoded.temporal_writes = desc.temporal_writes
        decoded.reads_memory = desc.reads_memory
        decoded.writes_memory = desc.writes_memory
        decoded.mnemonic = desc.mnemonic
        self._static[instr.id] = decoded
        return decoded

    # -- latency ---------------------------------------------------------------

    def _latency(self, mnemonic: str, produced_reg, consumer: MachineInstr) -> int:
        rule = self.target.aux_latency(mnemonic, consumer.desc.mnemonic)
        if rule is not None:
            position = rule.second_operand - 1
            if position < len(consumer.operands):
                operand = consumer.operands[position]
                if isinstance(operand, Reg) and operand.reg == produced_reg:
                    return rule.latency
        desc = self.target.instructions.get(mnemonic)
        return desc.latency if desc is not None else 1

    def _temporal_latency(self, mnemonic: str) -> int:
        latency = self._mnemonic_latency.get(mnemonic)
        if latency is None:
            desc = self.target.instructions.get(mnemonic)
            latency = desc.latency if desc is not None else 1
            self._mnemonic_latency[mnemonic] = latency
        return latency

    # -- main entry -----------------------------------------------------------

    def issue(self, instr: MachineInstr, mem_log) -> int:
        """Charge cycles for one executed instruction; returns issue cycle."""
        decoded = self._static.get(instr.id)
        if decoded is None:
            decoded = self._decode(instr)
        kind_cycles = self.kind_cycles
        producers = self.producers
        producers_get = producers.get
        ring_cycle = self.ring_cycle
        ring_mask = self.ring_mask

        # branch redirect
        start = self.last_issue
        if self.redirect_floor > start:
            kind_cycles[BRANCH] += self.redirect_floor - start
            start = self.redirect_floor

        # register interlock
        lat_memo = decoded.lat_memo
        for unit in decoded.use_units:
            producer = producers_get(unit)
            if producer is None:
                continue
            ready, token, miss_extra = producer
            memo = lat_memo.get(id(token))
            if memo is None:
                latency = self._latency(token[0], token[1], instr)
                producer_desc = self.target.instructions.get(token[0])
                is_load = bool(
                    producer_desc is not None and producer_desc.reads_memory
                )
                memo = (latency, is_load)
                lat_memo[id(token)] = memo
            latency, is_load = memo
            ready += latency
            if ready > start:
                raised = ready - start
                miss_part = min(raised, miss_extra)
                if miss_part:
                    kind_cycles[CACHE_MISS] += miss_part
                    raised -= miss_part
                if raised:
                    kind = LOAD_USE if is_load else LATENCY_KIND
                    kind_cycles[kind] += raised
                start = ready
        if decoded.temporal_reads:
            # temporal (EAP) resources model the i860's explicitly-advanced
            # fp pipelines, so a wait on one is an fp-advance stall
            for name in decoded.temporal_reads:
                producer = self.temporal_producers.get(name)
                if producer is not None:
                    p_issue, p_mnemonic = producer
                    ready = p_issue + self._temporal_latency(p_mnemonic)
                    if ready > start:
                        kind_cycles[FP_ADVANCE] += ready - start
                        start = ready

        # memory ordering
        if decoded.reads_memory and self.last_store_issue >= 0:
            if self.last_store_issue + 1 > start:
                kind_cycles[MEMORY_ORDER] += self.last_store_issue + 1 - start
                start = self.last_store_issue + 1
        if decoded.writes_memory:
            if self.last_store_issue + 1 > start:
                kind_cycles[MEMORY_ORDER] += self.last_store_issue + 1 - start
                start = self.last_store_issue + 1
            if self.last_load_issue > start:
                kind_cycles[MEMORY_ORDER] += self.last_load_issue - start
                start = self.last_load_issue

        # structural hazards + packing classes, one attribution per
        # rejected candidate cycle.  Resources and packing classes only
        # exist at cycles <= _frontier, so the scan stops the moment the
        # candidate cycle passes it — the common case (issuing at the
        # stream frontier) does no dict lookups at all.
        classes = decoded.classes
        cycle_classes = self.cycle_classes
        cycle = start
        frontier = self._frontier
        masks = decoded.masks
        if masks is not None:
            # pool-free fast path: two list indexings per occupied cycle
            while cycle <= frontier:
                for offset, mask in masks:
                    at = cycle + offset
                    slot = at & _RING_MASK
                    if ring_cycle[slot] == at and ring_mask[slot] & mask:
                        kind_cycles[RESOURCE] += 1
                        break
                else:
                    if classes:
                        existing = cycle_classes.get(cycle)
                        if existing is not None and not (existing & classes):
                            kind_cycles[PACKING] += 1
                            cycle += 1
                            continue
                    break
                cycle += 1
            last = cycle
            for offset, mask in masks:
                at = cycle + offset
                slot = at & _RING_MASK
                if ring_cycle[slot] == at:
                    ring_mask[slot] |= mask
                else:
                    ring_cycle[slot] = at
                    ring_mask[slot] = mask
                last = at
        else:
            vector = decoded.vector
            while cycle <= frontier:
                for offset, need in enumerate(vector):
                    at = cycle + offset
                    slot = at & _RING_MASK
                    busy = ring_mask[slot] if ring_cycle[slot] == at else 0
                    if conflicts(busy, need):
                        kind_cycles[RESOURCE] += 1
                        break
                else:
                    if classes:
                        existing = cycle_classes.get(cycle)
                        if existing is not None and not (existing & classes):
                            kind_cycles[PACKING] += 1
                            cycle += 1
                            continue
                    break
                cycle += 1
            last = cycle + len(vector) - 1
            for offset, need in enumerate(vector):
                at = cycle + offset
                slot = at & _RING_MASK
                busy = ring_mask[slot] if ring_cycle[slot] == at else 0
                ring_cycle[slot] = at
                ring_mask[slot] = commit(busy, need)
        if classes:
            existing = cycle_classes.get(cycle)
            cycle_classes[cycle] = (
                classes if existing is None else existing & classes
            )
        if last < cycle:
            last = cycle
        if last > frontier:
            self._frontier = last

        # memory + cache effects
        extra_latency = 0
        if mem_log:
            cache = self.cache
            for address, is_write, _size in mem_log:
                if cache is not None and not cache.access(address):
                    if not is_write:  # write-through: stores do not stall
                        extra_latency += cache.miss_penalty
                if is_write:
                    if cycle > self.last_store_issue:
                        self.last_store_issue = cycle
                else:
                    if cycle > self.last_load_issue:
                        self.last_load_issue = cycle

        # record produced values (producers store their ready cycle; the
        # consumer adds the pair latency at use)
        for units, token in decoded.def_entries:
            entry = (cycle + extra_latency, token, extra_latency)
            for unit in units:
                producers[unit] = entry
        for units, token in decoded.implicit_defs:
            entry = (cycle, token, 0)
            for unit in units:
                producers[unit] = entry
        if decoded.temporal_writes:
            mnemonic = decoded.mnemonic
            for name in decoded.temporal_writes:
                self.temporal_producers[name] = (cycle, mnemonic)

        self.last_issue = cycle
        if cycle - self._horizon > 256:
            self._prune(cycle)
        return cycle

    def transfer(self, instr: MachineInstr, issue_cycle: int) -> None:
        """A taken control transfer: fetch redirects after the latency."""
        self.redirect_floor = max(
            self.redirect_floor, issue_cycle + max(1, instr.desc.latency)
        )

    def _prune(self, cycle: int) -> None:
        """Drop class bookkeeping for long-past cycles (the resource ring
        is fixed-size and recycles itself)."""
        cutoff = cycle - 64
        self.cycle_classes = {
            c: k for c, k in self.cycle_classes.items() if c >= cutoff
        }
        self._horizon = cycle

    @property
    def cycles(self) -> int:
        return self.last_issue + 1
