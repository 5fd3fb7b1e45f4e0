"""The simulation driver: functional execution + pipeline timing.

:class:`Simulator` runs one function of a linked executable under the
target's calling convention: arguments go to the CWVM argument registers,
``sp`` starts at the top of simulated memory, a sentinel return address
halts the run, and the result is read from the CWVM result register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.util import MAGIC_NUMBER

from repro.backend.insts import MachineInstr
import repro.cache as artifact_cache
from repro.errors import SimulationError, SimulationTimeout
import repro.obs as obs
from repro.options import SimOptions
from repro.program import Executable
from repro.sim.blockcache import SEGMENT_CAP, BlockTimingCache, decode_blocks
from repro.sim.cache import DirectMappedCache
from repro.sim.executor import SemanticsCompiler
from repro.sim.jit import SUPERBLOCK_WARMUP, SegmentJIT
from repro.sim.pipeline import PipelineModel
from repro.sim.state import MachineState

_HALT = -1

#: sentinel distinguishing "entry not yet considered" from a stored
#: ``None`` (refused by the translator) in the JIT dispatch table
_MISS = object()

#: executed instructions between ``max_cycles`` checks (a power of
#: two): the reference loop checks every this many instructions, and
#: the engine caps generated code's back-edge fuse at it, so compiled
#: loops return to the dispatch loop's boundary check
WATCHDOG_STRIDE = 256


def _timeout(max_cycles, function, pc, cycle) -> SimulationTimeout:
    return SimulationTimeout(
        f"simulation exceeded {max_cycles} cycles",
        max_cycles=max_cycles,
        function=function,
        pc=pc,
        cycle=cycle,
    )


def _no_timing_close(
    entry, end, transfer, miss_mask, entry_id, base,
    _empty=BlockTimingCache.EMPTY_ID,
):
    """Segment close for ``model_timing=False`` runs: no pipeline
    model is consulted, so every close is free and contributes nothing."""
    return 0, _empty, ()


def _accounted_close(real_close, totals):
    """Wrap :meth:`BlockTimingCache.close` for ``trace=True`` runs:
    every close (dispatch-level *and* the inline probe-miss closes inside
    generated code) adds its record's memoized stall-delta tuple into the
    run's accumulator.  Trace runs withhold the inline probe tables (see
    ``_cold_tables``), so every boundary funnels through here and no
    stall cycle escapes attribution."""

    def close(entry, end, transfer, miss_mask, entry_id, base):
        record = real_close(entry, end, transfer, miss_mask, entry_id, base)
        index = 0
        for cycles in record[2]:
            if cycles:
                totals[index] += cycles
            index += 1
        return record

    return close


#: shared empty transition table for ``trace=True`` runs
_EMPTY_TRANSITIONS: dict = {}


def _cold_tables(entry, end, transfer, _empty=_EMPTY_TRANSITIONS):
    """Transition-table accessor that binds generated code's probe
    sites on ``trace=True`` runs: every inline probe misses into a
    shared empty table, so each boundary takes the stall-accumulating
    ``close()`` path — same memo, same records, bit-identical cycles."""
    return _empty


class _FreeRecords:
    """Stand-in transition table for ``model_timing=False`` runs:
    every inline probe "hits" a free record, so generated code never
    falls back to the close path."""

    __slots__ = ()

    @staticmethod
    def get(key, default=None, _record=(0, BlockTimingCache.EMPTY_ID, ())):
        return _record


_FREE_RECORDS = _FreeRecords()


def _free_tables(entry, end, transfer, _records=_FREE_RECORDS):
    return _records


@dataclass
class SimResult:
    """Everything one simulation run reports."""

    return_value: object
    cycles: int
    instructions: int
    loads: int = 0
    stores: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: dynamic entry count per block label (profiling, Tables 3/4)
    block_counts: dict[str, int] = field(default_factory=dict)
    #: hazard kind -> attributed stall cycles, filled when the run used
    #: ``SimOptions(trace=True)``; every cycle of issue-point advance is
    #: attributed, so the values sum to ``cycles - 1``
    cycle_breakdown: dict[str, int] | None = None
    #: block-timing cache lookups this run (both zero on a ``watch=``
    #: run, which takes the reference interleaved model, or with timing
    #: off)
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    #: segment-JIT activity this run (all zero on a ``watch=`` run):
    #: segments newly compiled and compiled-segment dispatches
    jit_segments: int = 0
    jit_hits: int = 0
    #: trace-superblock activity this run (zero on a ``watch=`` run):
    #: traces newly compiled and side exits taken out of compiled traces
    jit_superblocks: int = 0
    jit_side_exits: int = 0
    #: entries with a live compiled function at run end — compiled plus
    #: preloaded; the number that distinguishes a warm run
    #: (``jit_segments == 0`` but hundreds active) from a cold one
    jit_active_segments: int = 0
    #: pipeline-state digests computed this run (first visits to a
    #: timing transition); on a warm run this stays near zero while
    #: ``block_cache_hits`` counts every boundary
    timing_digests: int = 0
    #: instructions executed outside generated code: by the closure
    #: interpreter, before warmup or for an entry the JIT refused.  A
    #: ``watch=`` run interprets every instruction
    interpreted: int = 0

    @property
    def stall_cycles(self) -> int:
        """Total attributed stall cycles (0 when no breakdown was kept)."""
        if not self.cycle_breakdown:
            return 0
        return sum(self.cycle_breakdown.values())


#: ``SimResult`` field -> the trace counter :meth:`Simulator.run` adds
#: it to (``cycle_breakdown`` adds ``sim.stall.<kind>`` besides)
SIM_COUNTERS = (
    ("instructions", "sim.instructions"),
    ("cycles", "sim.cycles"),
    ("block_cache_hits", "sim.block_cache.hit"),
    ("block_cache_misses", "sim.block_cache.miss"),
    ("timing_digests", "sim.timing.digests_computed"),
    ("jit_segments", "sim.jit.segments"),
    ("jit_hits", "sim.jit.hit"),
    ("jit_superblocks", "sim.jit.superblocks"),
    ("jit_side_exits", "sim.jit.side_exits"),
    ("interpreted", "sim.interpreted"),
)


def _count_result(trace, result: SimResult) -> None:
    """Add one run's :data:`SIM_COUNTERS` to ``trace``."""
    for name, counter in SIM_COUNTERS:
        amount = getattr(result, name)
        if amount:
            trace.count(counter, amount)
    if result.cycle_breakdown:
        for kind, amount in result.cycle_breakdown.items():
            if amount:
                trace.count(f"sim.stall.{kind}", amount)


def _resolve_cache(cache) -> DirectMappedCache | None:
    """``SimOptions.cache`` -> a cache instance or ``None``."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return DirectMappedCache()
    return cache


class Simulator:
    """Executes linked programs; reusable across runs of one executable
    (instruction closures are compiled once)."""

    def __init__(
        self,
        executable: Executable,
        options: SimOptions | None = None,
    ):
        options = options if options is not None else SimOptions()
        self.executable = executable
        self.target = executable.target
        self.options = options
        self.cache = _resolve_cache(options.cache)
        self.model_timing = options.model_timing
        # the instruction closures and block map depend only on the linked
        # program, so they are compiled once and shared by every Simulator
        # built over the same executable (the eval harness simulates each
        # compiled kernel several times)
        decoded = getattr(executable, "_sim_decode", None)
        if decoded is None:
            compiler = SemanticsCompiler(self.target)
            closures = [compiler.compile_instr(i) for i in executable.instrs]
            # label of the block each instruction belongs to (for profiling)
            block_of, block_starts = decode_blocks(executable)
            decoded = (closures, block_of, block_starts)
            executable._sim_decode = decoded
        self.closures, self.block_of, self._block_starts = decoded
        # the pipeline decode table is likewise per-program, shared by
        # every reference run and block-timing replay model, so no new
        # Simulator/_run re-decodes the whole program
        pipe_static = getattr(executable, "_pipe_static", None)
        if pipe_static is None:
            pipe_static = {}
            executable._pipe_static = pipe_static
        self._pipe_static = pipe_static

    def run(
        self,
        function: str,
        args: tuple = (),
        arg_types: tuple | None = None,
        options: SimOptions | None = None,
        *,
        watch=None,
    ) -> SimResult:
        """Run ``function`` under one :class:`SimOptions` record.

        ``options``, if given, replaces the record the simulator was
        built with for this run (cache, timing model, limits and trace
        flag all come from it).  ``SimOptions(max_cycles=...)`` arms the
        watchdog: the run raises :class:`SimulationTimeout` (carrying
        function/pc/cycle context) exactly when its cycle count exceeds
        the budget; with timing off the instruction count stands in for
        cycles.  ``SimOptions(trace=True)`` fills
        ``SimResult.cycle_breakdown``.  Both run on the engine (the
        block-timing memo and the segment JIT).

        ``watch``, if given, is called as ``watch(pc, instr, cycle)``
        after every executed instruction (cycle is 0 when timing is off)
        — a debugging hook for watching generated code execute.  It
        needs per-instruction issue cycles, so the run takes the
        reference interleaved model instead of the engine.
        """
        run_options = options if options is not None else self.options
        cache = self.cache if options is None else _resolve_cache(
            run_options.cache
        )
        if not run_options.model_timing:
            # the data cache only shapes timing, so a functional run
            # models none — the reference loop never consulted it
            cache = None
        with obs.span(
            f"simulate:{function}", target=self.target.name
        ) as node:
            if watch is None:
                result = self._run_fast(
                    function, args, arg_types, run_options, cache
                )
            else:
                # a watch callback is fed per-instruction issue cycles,
                # which only the reference interleaved model produces
                result = self._run(
                    function, args, arg_types, run_options, cache, watch
                )
            if node is not None:  # a trace is active
                node.attrs["cycles"] = result.cycles
                node.attrs["instructions"] = result.instructions
                _count_result(obs.current_trace(), result)
        if watch is None:
            self._persist_sim_artifacts()
        return result

    def _artifact_key(self, layer: str, *extra) -> str | None:
        """Artifact-cache key for this executable's simulator state, or
        ``None`` when the executable did not come through the cached
        compile path (hand-linked programs stay uncached)."""
        base = getattr(self.executable, "content_key", None)
        if not base:
            return None
        store = artifact_cache.get_cache()
        if not store.enabled:
            return None
        return store.key(layer, base, *extra)

    def _persist_sim_artifacts(self) -> None:
        """Publish JIT code and timing digests that changed this run, so
        the *next process* starts with them warm (layers 3 and 4 of
        :mod:`repro.cache`).  Dirty flags keep steady-state runs free of
        filesystem traffic."""
        exe = self.executable
        jit = getattr(exe, "_segment_jit", None)
        if jit is not None and jit.dirty:
            key = self._artifact_key("jit", MAGIC_NUMBER)
            if key is not None and artifact_cache.get_cache().put(
                "jit", key, jit.export()
            ):
                jit.dirty = False
        caches = getattr(exe, "_block_timing", None)
        if caches:
            for miss_penalty, block_cache in caches.items():
                if not block_cache.dirty:
                    continue
                key = self._artifact_key("timing", repr(miss_penalty))
                if key is not None and artifact_cache.get_cache().put(
                    "timing", key, block_cache.export()
                ):
                    block_cache.dirty = False

    def _init_state(
        self, function: str, args: tuple, arg_types: tuple | None
    ) -> MachineState:
        """Fresh machine state with the calling convention applied."""
        exe = self.executable
        state = MachineState(self.target.registers, exe.initial_memory())
        cwvm = self.target.cwvm
        stack_top = exe.memory_size - 64
        state.write_reg(cwvm.sp, "int", stack_top)
        state.write_reg(cwvm.fp, "int", stack_top)
        if arg_types is None:
            arg_types = tuple(
                "double" if isinstance(a, float) else "int" for a in args
            )
        counts: dict[str, int] = {}
        for value, type_name in zip(args, arg_types):
            index = counts.get(type_name, 0)
            counts[type_name] = index + 1
            reg = cwvm.arg_register(type_name, index)
            if reg is None:
                raise SimulationError(
                    f"no argument register for {type_name} argument #{index + 1}",
                    function=function,
                )
            state.write_reg(reg, type_name, value)
        if cwvm.gp is not None:
            state.write_reg(cwvm.gp, "int", exe.gp_base)
        if cwvm.retaddr is not None:
            state.write_reg(cwvm.retaddr, "int", _HALT)
        for reg, value in cwvm.hard_registers.items():
            state.write_reg(reg, "int", value)
        return state

    def _segment_jit(self) -> SegmentJIT:
        """The per-executable segment JIT (warmup counts and compiled
        functions amortize across every run of the program).  On first
        attach, previously generated code is staged from the artifact
        cache — entries skip warmup and are rebuilt lazily from their
        marshalled code objects, which only an interpreter with the same
        bytecode magic can read, so the magic is part of the key."""
        jit = getattr(self.executable, "_segment_jit", None)
        if jit is None:
            jit = SegmentJIT(self.executable)
            key = self._artifact_key("jit", MAGIC_NUMBER)
            if key is not None:
                payload = artifact_cache.get_cache().get("jit", key)
                if isinstance(payload, dict):
                    jit.preload(payload)
            self.executable._segment_jit = jit
        return jit

    def _block_cache(
        self, cache: DirectMappedCache | None
    ) -> BlockTimingCache:
        """The per-(executable, miss-penalty) block-timing cache; on
        first attach the memo table is preloaded from the artifact
        cache, so a fresh process replays ~nothing."""
        caches = getattr(self.executable, "_block_timing", None)
        if caches is None:
            caches = {}
            self.executable._block_timing = caches
        key = cache.miss_penalty if cache is not None else None
        block_cache = caches.get(key)
        if block_cache is None:
            block_cache = BlockTimingCache(
                self.target,
                self.executable.instrs,
                key,
                static=self._pipe_static,
            )
            artifact_key = self._artifact_key("timing", repr(key))
            if artifact_key is not None:
                payload = artifact_cache.get_cache().get(
                    "timing", artifact_key
                )
                if isinstance(payload, dict):
                    block_cache.preload(payload)
            caches[key] = block_cache
        return block_cache

    def _run(
        self,
        function: str,
        args: tuple,
        arg_types: tuple | None,
        options: SimOptions,
        cache: DirectMappedCache | None,
        watch,
    ) -> SimResult:
        max_instructions = options.max_instructions
        max_cycles = options.max_cycles
        exe = self.executable
        state = self._init_state(function, args, arg_types)
        cwvm = self.target.cwvm
        if cache is not None:
            cache.reset()
        pipeline = (
            PipelineModel(self.target, cache, static=self._pipe_static)
            if options.model_timing
            else None
        )

        pc = exe.entry(function)
        executed = 0
        loads = stores = 0
        block_counts: dict[str, int] = {}
        mem_log: list = []
        instrs = exe.instrs
        program_size = len(instrs)
        closures = self.closures
        block_of = self.block_of
        block_starts = self._block_starts
        pipeline_issue = pipeline.issue if pipeline else None
        # the watchdog is checked every WATCHDOG_STRIDE instructions so
        # its cost on the hot path is one extra branch per instruction
        watchdog = max_cycles is not None
        stride_mask = WATCHDOG_STRIDE - 1

        while pc != _HALT:
            if pc < 0 or pc >= program_size:
                raise SimulationError(
                    f"pc {pc} outside program",
                    function=function,
                    pc=pc,
                    cycle=pipeline.cycles if pipeline else executed,
                )
            instr = instrs[pc]
            if executed >= max_instructions:
                raise SimulationError(
                    f"exceeded {max_instructions} instructions (infinite loop?)",
                    function=function,
                    pc=pc,
                    cycle=pipeline.cycles if pipeline else executed,
                )
            if watchdog and not (executed & stride_mask):
                current = pipeline.cycles if pipeline else executed
                if current > max_cycles:
                    raise _timeout(max_cycles, function, pc, current)
            effect = closures[pc](state, mem_log)
            executed += 1
            if pc in block_starts:
                label = block_of[pc]
                block_counts[label] = block_counts.get(label, 0) + 1
            if mem_log:
                for _addr, is_write, _size in mem_log:
                    if is_write:
                        stores += 1
                    else:
                        loads += 1
            if pipeline_issue is not None:
                issue_cycle = pipeline_issue(instr, mem_log)
            else:
                issue_cycle = 0
            if mem_log:
                del mem_log[:]
            if watch is not None:
                watch(pc, instr, issue_cycle)

            if effect is None:
                pc += 1
                continue

            kind = effect[0]
            if kind == "goto":
                self._execute_delay_slots(instr, pc, state, pipeline)
                executed += abs(instr.desc.slots)
                if pipeline:
                    pipeline.transfer(instr, issue_cycle)
                pc = exe.labels.get(effect[1])
                if pc is None:
                    raise SimulationError(
                        f"undefined label {effect[1]!r}",
                        function=function,
                        cycle=pipeline.cycles if pipeline else executed,
                    )
            elif kind == "call":
                if cwvm.retaddr is None:
                    raise SimulationError(
                        "call without a %retaddr register",
                        function=function,
                        pc=pc,
                        cycle=pipeline.cycles if pipeline else executed,
                    )
                state.write_reg(cwvm.retaddr, "int", pc + 1)
                if pipeline:
                    pipeline.transfer(instr, issue_cycle)
                pc = exe.labels.get(effect[1])
                if pc is None:
                    raise SimulationError(
                        f"undefined function {effect[1]!r}",
                        function=function,
                        cycle=pipeline.cycles if pipeline else executed,
                    )
            elif kind == "ret":
                self._execute_delay_slots(instr, pc, state, pipeline)
                executed += abs(instr.desc.slots)
                if pipeline:
                    pipeline.transfer(instr, issue_cycle)
                pc = state.read_reg(cwvm.retaddr, "int")
            else:
                raise SimulationError(
                    f"unknown control effect {effect!r}",
                    function=function,
                    pc=pc,
                    cycle=pipeline.cycles if pipeline else executed,
                )

        cycles = pipeline.cycles if pipeline else executed
        if watchdog and cycles > max_cycles:
            raise _timeout(max_cycles, function, pc, cycles)
        result = SimResult(
            return_value=None,
            cycles=cycles,
            instructions=executed,
            interpreted=executed,
            loads=loads,
            stores=stores,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            block_counts=block_counts,
            cycle_breakdown=(
                pipeline.cycle_breakdown
                if pipeline is not None and options.trace
                else None
            ),
        )
        result.return_value = self._read_result(state)
        return result

    def _run_fast(
        self,
        function: str,
        args: tuple,
        arg_types: tuple | None,
        options: SimOptions,
        cache: DirectMappedCache | None,
    ) -> SimResult:
        """The engine: memoized block timing (see
        :mod:`repro.sim.blockcache`) plus the segment JIT.

        Functional execution is unchanged — every instruction's closure
        (or its compiled equivalent) still runs, and the data-cache model
        is consulted once per memory access in reference order — but the
        pipeline model is consulted per *segment* through
        :class:`BlockTimingCache` instead of per instruction.  The timing
        state between segments is just an interned digest id plus a
        virtual cycle counter.  The ``max_cycles`` watchdog is checked at
        every fresh segment boundary the dispatch loop visits and once at
        run end."""
        max_instructions = options.max_instructions
        max_cycles = options.max_cycles
        watchdog = max_cycles is not None
        exe = self.executable
        state = self._init_state(function, args, arg_types)
        cwvm = self.target.cwvm
        if cache is not None:
            cache.reset()
        tracing = options.trace and options.model_timing
        stall_totals: list[int] = []
        if options.model_timing:
            block_cache = self._block_cache(cache)
            # materialization bases must never decrease across runs
            # sharing this cache (stale resource-ring tags would alias),
            # so every absolute base is offset by the high-water mark
            base_offset = block_cache.begin_run()
            close = block_cache.close
            start_hits = block_cache.hits
            start_misses = block_cache.misses
            start_digests = block_cache.digests_computed
            trans_tables = block_cache.transitions
            if tracing:
                # stall attribution: every boundary must funnel through
                # the accounting close (inline probe commits would skip
                # the stall-delta accumulation), so the chain's probe
                # tables are withheld for this run
                stall_totals = [0] * len(block_cache.stall_kinds())
                close = _accounted_close(block_cache.close, stall_totals)
                trans_tables = _cold_tables
        else:
            # functional-only run: same loop (and segment JIT), but the
            # segment close never consults a pipeline model and every
            # probe hits a free record
            block_cache = None
            base_offset = 0
            close = _no_timing_close
            start_hits = start_misses = start_digests = 0
            trans_tables = _free_tables

        pc = exe.entry(function)
        executed = 0
        loads = stores = 0
        block_counts: dict[str, int] = {}
        mem_log: list = []
        instrs = exe.instrs
        program_size = len(instrs)
        closures = self.closures
        block_of = self.block_of
        block_starts = self._block_starts
        # an interpreted ret reads the %retaddr register; the unit
        # lookup and sign fix are hoisted out of state.read_reg
        units_get = state.units.get
        ret_unit = (
            self.target.registers.units_of(cwvm.retaddr)[0]
            if cwvm.retaddr is not None
            else None
        )

        entry_id = BlockTimingCache.EMPTY_ID
        virtual_issue = 0
        seg_entry = pc
        seg_len = 0
        miss_mask = 0
        load_bit = 1

        # segment-JIT dispatch state: compiled functions only ever run at
        # a fresh segment boundary (seg_len == 0 and pc == seg_entry),
        # where the miss mask is zero, and return at another one
        jit = self._segment_jit()
        jit_cached = cache is not None
        jit_table = jit.functions(jit_cached)
        #: generated function -> its probe sites' transition-table
        #: getters, bound through this run's accessor on the function's
        #: first dispatch (each table lives as long as its cache)
        jit_getters: dict = {}
        jit_hits_run = 0
        # instructions generated code executed; the rest were interpreted
        jit_executed = 0
        jit_compiled_before = jit.compiled
        # trace-superblock dispatch state: the edge profile feeds trace
        # selection
        sb_edges = jit.edges
        sb_exits_run = 0
        jit_superblocks_before = jit.superblocks
        # an armed watchdog caps generated code's back-edge fuse, so a
        # compiled loop returns to the boundary check about every
        # WATCHDOG_STRIDE instructions
        fuse_cap = WATCHDOG_STRIDE if watchdog else max_instructions

        while pc != _HALT:
            if pc < 0 or pc >= program_size:
                raise SimulationError(
                    f"pc {pc} outside program",
                    function=function,
                    pc=pc,
                    cycle=virtual_issue + 1,
                )
            if executed >= max_instructions:
                raise SimulationError(
                    f"exceeded {max_instructions} instructions (infinite loop?)",
                    function=function,
                    pc=pc,
                    cycle=virtual_issue + 1,
                )
            if seg_len == 0 and pc == seg_entry:
                if watchdog:
                    current = (
                        virtual_issue + 1
                        if block_cache is not None
                        else executed
                    )
                    if current > max_cycles:
                        raise _timeout(max_cycles, function, pc, current)
                record = jit_table.get(pc, _MISS)
                if record is _MISS:
                    record = jit.warm(pc, jit_cached)
                if record is not None and (
                    executed + record[1] <= max_instructions
                ):
                    # one contract for segments and traces: generated
                    # code closes every segment it runs, the final one
                    # included, and returns the pc to continue at
                    fn, max_exec, is_sb = record
                    getters = jit_getters.get(fn)
                    if getters is None:
                        getters = jit_getters[fn] = tuple(
                            trans_tables(*site).get
                            for site in fn._jit_sites
                        )
                    fuse = max_instructions - executed - max_exec
                    if fuse > fuse_cap:
                        fuse = fuse_cap
                    (
                        pc, edge, exec_delta, load_delta, store_delta,
                        cycle_delta, entry_id, probe_hits, probe_closes,
                    ) = fn(
                        state, cache, block_counts, getters, close,
                        entry_id, base_offset + virtual_issue, fuse,
                    )
                    executed += exec_delta
                    jit_executed += exec_delta
                    loads += load_delta
                    stores += store_delta
                    virtual_issue += cycle_delta
                    jit_hits_run += probe_closes
                    if probe_hits and block_cache is not None:
                        # inline probe hits bypass close(), so the memo's
                        # hit counter is credited here
                        block_cache.hits += probe_hits
                    seg_entry = pc
                    if edge is None:
                        # a fuse stop at the head
                        continue
                    if is_sb:
                        sb_exits_run += 1
                    if edge >= 0:
                        # profile the taken edge until its promotion
                        # decision; a hot edge triggers one
                        # trace-selection attempt at its source (or
                        # target)
                        taken = (edge, pc)
                        hot = sb_edges.get(taken, 0)
                        if hot < SUPERBLOCK_WARMUP:
                            hot += 1
                            sb_edges[taken] = hot
                            if hot == SUPERBLOCK_WARMUP and not (
                                jit.build_superblock(edge, jit_cached)
                            ):
                                jit.build_superblock(pc, jit_cached)
                    continue
            effect = closures[pc](state, mem_log)
            executed += 1
            seg_len += 1
            if pc in block_starts:
                label = block_of[pc]
                block_counts[label] = block_counts.get(label, 0) + 1
            if mem_log:
                for address, is_write, _size in mem_log:
                    if is_write:
                        stores += 1
                        if cache is not None:
                            cache.access(address)
                    else:
                        loads += 1
                        if cache is not None and not cache.access(address):
                            miss_mask |= load_bit
                        load_bit <<= 1
                del mem_log[:]

            if effect is None:
                pc += 1
                if seg_len >= SEGMENT_CAP:
                    delta, entry_id, _ = close(
                        seg_entry, pc - 1, -1, miss_mask,
                        entry_id, base_offset + virtual_issue,
                    )
                    virtual_issue += delta
                    seg_entry = pc
                    seg_len = 0
                    miss_mask = 0
                    load_bit = 1
                continue

            kind = effect[0]
            if kind == "goto" or kind == "ret":
                end = pc
                slots = abs(instrs[pc].desc.slots)
                for slot in range(slots):
                    slot_pc = pc + 1 + slot
                    if slot_pc >= program_size:
                        break
                    slot_effect = closures[slot_pc](state, mem_log)
                    if slot_effect is not None:
                        raise SimulationError(
                            "control instruction in a delay slot is not"
                            " supported",
                            pc=slot_pc,
                        )
                    if mem_log:
                        # delay-slot accesses hit the cache and shape the
                        # miss mask, but (matching the reference path)
                        # are not counted in loads/stores
                        for address, is_write, _size in mem_log:
                            if is_write:
                                if cache is not None:
                                    cache.access(address)
                            else:
                                if cache is not None and not cache.access(
                                    address
                                ):
                                    miss_mask |= load_bit
                                load_bit <<= 1
                        del mem_log[:]
                    end = slot_pc
                executed += slots
                delta, entry_id, _ = close(
                    seg_entry, end, pc, miss_mask,
                    entry_id, base_offset + virtual_issue,
                )
                virtual_issue += delta
                seg_len = 0
                miss_mask = 0
                load_bit = 1
                if kind == "goto":
                    pc = exe.labels.get(effect[1])
                    if pc is None:
                        raise SimulationError(
                            f"undefined label {effect[1]!r}",
                            function=function,
                            cycle=virtual_issue + 1,
                        )
                elif ret_unit is not None:
                    word = units_get(ret_unit, 0)
                    pc = word - 4294967296 if word > 2147483647 else word
                else:
                    pc = state.read_reg(cwvm.retaddr, "int")
                seg_entry = pc
            elif kind == "call":
                if cwvm.retaddr is None:
                    raise SimulationError(
                        "call without a %retaddr register",
                        function=function,
                        pc=pc,
                        cycle=virtual_issue + 1,
                    )
                state.write_reg(cwvm.retaddr, "int", pc + 1)
                delta, entry_id, _ = close(
                    seg_entry, pc, pc, miss_mask,
                    entry_id, base_offset + virtual_issue,
                )
                virtual_issue += delta
                seg_len = 0
                miss_mask = 0
                load_bit = 1
                pc = exe.labels.get(effect[1])
                if pc is None:
                    raise SimulationError(
                        f"undefined function {effect[1]!r}",
                        function=function,
                        cycle=virtual_issue + 1,
                    )
                seg_entry = pc
            else:
                raise SimulationError(
                    f"unknown control effect {effect!r}",
                    function=function,
                    pc=pc,
                    cycle=virtual_issue + 1,
                )

        if block_cache is not None:
            cycles = virtual_issue + 1
            hits = block_cache.hits - start_hits
            misses = block_cache.misses - start_misses
        else:
            # timing off: the instruction count stands in for cycles,
            # exactly as on the reference path
            cycles = executed
            hits = misses = 0
        if watchdog and cycles > max_cycles:
            raise _timeout(max_cycles, function, pc, cycles)
        digests = (
            block_cache.digests_computed - start_digests
            if block_cache is not None
            else 0
        )
        jit_segments = jit.compiled - jit_compiled_before
        jit_superblocks = jit.superblocks - jit_superblocks_before
        jit_active = jit.active_segments()
        result = SimResult(
            return_value=None,
            cycles=cycles,
            instructions=executed,
            interpreted=executed - jit_executed,
            loads=loads,
            stores=stores,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            block_counts=block_counts,
            cycle_breakdown=(
                dict(zip(block_cache.stall_kinds(), stall_totals))
                if tracing
                else None
            ),
            block_cache_hits=hits,
            block_cache_misses=misses,
            jit_segments=jit_segments,
            jit_hits=jit_hits_run,
            jit_superblocks=jit_superblocks,
            jit_side_exits=sb_exits_run,
            jit_active_segments=jit_active,
            timing_digests=digests,
        )
        result.return_value = self._read_result(state)
        return result

    def _execute_delay_slots(
        self, instr: MachineInstr, pc: int, state, pipeline
    ) -> None:
        """Execute the delay-slot instructions following a taken transfer.

        Marion fills delay slots with nops (section 4.4), so only their
        timing matters, but we execute them faithfully anyway."""
        mem_log: list = []
        for slot in range(abs(instr.desc.slots)):
            slot_pc = pc + 1 + slot
            if slot_pc >= len(self.executable.instrs):
                break
            del mem_log[:]
            effect = self.closures[slot_pc](state, mem_log)
            if effect is not None:
                raise SimulationError(
                    "control instruction in a delay slot is not supported",
                    pc=slot_pc,
                )
            if pipeline:
                pipeline.issue(self.executable.instrs[slot_pc], mem_log)

    def _read_result(self, state: MachineState):
        # probe both result registers; the caller knows which one is real
        results = {}
        for type_name, reg in self.target.cwvm.results.items():
            try:
                results[type_name] = state.read_reg(reg, type_name)
            except SimulationError:
                pass
        return results


def run_program(
    executable: Executable,
    function: str,
    args: tuple = (),
    options: SimOptions | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(executable, options)
    return simulator.run(function, args)
