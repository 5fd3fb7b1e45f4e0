"""Memoized block-timing fast path (the simulator's segment cache).

The Livermore kernels re-execute the same handful of basic blocks for
thousands of iterations, and after warmup the pipeline hazard state
repeats: the same straight-line *segment*, entered with the same
relative hazard state and the same pattern of data-cache load misses,
always costs the same number of cycles and leaves the same relative
hazard state behind.  The fast path exploits this.  Functional
execution (register and memory semantics plus the
:class:`~repro.sim.cache.DirectMappedCache` model) still runs every
iteration, but instead of walking :meth:`PipelineModel.issue` per
instruction the simulator keeps one bit per load in a miss mask and
consults a timing cache keyed by::

    (entry_pc, end_pc, transfer_pc, load-miss bitmask, entry digest)

A segment is a maximal dynamically straight-line run: from one entry
point up to (and including) the first *taken* control transfer and its
delay slots, or up to :data:`SEGMENT_CAP` instructions.  Given the key,
the executed pc sequence is exactly ``entry_pc..end_pc`` (untaken
conditional branches return no control effect, so they stay inside a
segment), which is what makes the replay reconstructible without
recording instruction streams or memory accesses.

The memo is *chained by exit id*: digests are interned to small integer
ids, and because a digest fully determines all future
:meth:`PipelineModel.issue` behavior, the exit id of segment N simply
*is* the entry id of segment N+1.  Transitions are therefore stored as
one small dict per static segment — ``(entry_pc, end_pc, transfer_pc)
-> {transition_key(entry_id, miss_mask): (cycle_delta, exit_id,
stall_deltas)}`` — so a warm boundary crossing is a single one-int
lookup in a dict the caller already holds, with zero digest hashing.
:func:`state_digest` runs only on first visit to a transition (counted
in :attr:`BlockTimingCache.digests_computed`); steady state never
re-derives a key it already knows.

The *digest* canonicalizes everything :meth:`PipelineModel.issue` and
:meth:`PipelineModel.transfer` can observe, relative to the entry issue
cycle: producer ready times (aged out once they can no longer
interlock) and the cache-miss stretch an interlock can still charge,
temporal (EAP) producers, resource-ring occupancy at and
beyond the issue point, packing-class commitments, the memory-ordering
watermarks and the branch-redirect floor.  Two states with equal
digests are indistinguishable to every future issue, so a cached
``(cycle delta, exit digest)`` substitutes for the replay exactly —
steady-state loop iterations reduce to one dictionary probe per block.

On a cache miss the segment is *replayed* through a real
:class:`PipelineModel` materialized from the entry digest.  Its memory
accesses are rebuilt from the key: each instruction's accesses are
fixed by its semantics (:func:`~repro.sim.executor.memory_accesses`, in
the order the interpreter logs them), a load's outcome is its bit in
the miss mask, and a store replays as a hit because stores never stall
(write-through).  A scripted stand-in for the data cache feeds those
outcomes back, so the real cache model is consulted exactly once per
access.  The model attributes every cycle
it charges to a hazard kind, so every record also memoizes the
segment's per-hazard-kind stall deltas, which is what lets
``SimOptions(trace=True)`` runs ride this fast path: a warm trace run
sums memoized stall-delta tuples instead of attributing every issue.
``tests/test_block_timing.py`` holds the fast path bit-identical to the
reference interleaved model across the whole target × strategy grid.

The segment JIT (:mod:`repro.sim.jit`) compiles hot segments' functional
side to flat Python but leaves this timing contract untouched: a
compiled segment produces the same ``(entry_pc, end_pc, transfer_pc,
miss mask)`` close key the interpreter would, so JIT-executed and
interpreted iterations share one timing cache and are indistinguishable
to the replay.
"""

from __future__ import annotations

from operator import itemgetter
from types import SimpleNamespace

from repro.sim.executor import memory_accesses
from repro.sim.pipeline import _RING_MASK, PipelineModel

#: digest of a pristine pipeline — the state every run starts in
EMPTY_DIGEST = (0, (), (), (), (), -1, 0)

#: a segment is force-closed after this many instructions, so one-shot
#: straight-line code cannot grow unbounded keys or miss masks
SEGMENT_CAP = 2048

#: the table stops admitting new entries past this size (lookups still
#: hit; further misses replay uncached) — a backstop against degenerate
#: keying, e.g. a workload whose miss masks never repeat
MAX_ENTRIES = 1 << 16


def transition_key(entry_id: int, miss_mask: int) -> int:
    """The key of one transition in a segment's table: ``miss_mask``
    above the 32 bits of ``entry_id``.  An id counts the digests
    interned so far, at most one per replay, so it stays far below
    ``2**32`` and the key is one-to-one."""
    return miss_mask << 32 | entry_id


def decode_blocks(executable):
    """Block structure of a linked program, for dynamic block profiling.

    Returns ``(block_of, block_starts)``: the label of the block each
    instruction index belongs to, and the frozen set of block-start
    indices.  Shared by the simulator loops and the segment JIT so both
    attribute dynamic block counts identically."""
    block_of: list[str] = []
    by_index = sorted(executable.labels.items(), key=lambda item: item[1])
    position = 0
    current = ""
    for label, index in by_index:
        while position < index:
            block_of.append(current)
            position += 1
        current = label
    while position < len(executable.instrs):
        block_of.append(current)
        position += 1
    return block_of, frozenset(executable.labels.values())


def target_max_latency(target) -> int:
    """An upper bound on any producer→consumer latency of ``target``.

    A producer that issued more than this many cycles before the issue
    point can never interlock again, so the digest ages it out — which
    is what makes steady-state loop iterations digest-equal."""
    cached = getattr(target, "_sim_max_latency", None)
    if cached is None:
        cached = 1
        for desc in target.instructions.values():
            if desc.latency > cached:
                cached = desc.latency
        for rule in target.aux_rules.values():
            if rule.latency > cached:
                cached = rule.latency
        target._sim_max_latency = cached
    return cached


def state_digest(model: PipelineModel, max_latency: int) -> tuple:
    """Canonicalize ``model``'s timing state relative to its issue point.

    Components that cannot affect any future :meth:`PipelineModel.issue`
    (its cycles or its attribution) are normalized away: producers and
    temporal producers older than ``max_latency``, the part of a
    producer's cache-miss stretch no later interlock can reach, ring
    occupancy and packing classes below the issue point, a redirect
    floor already passed, and memory-ordering watermarks that can no
    longer delay anything.  Every surviving cycle is encoded relative to
    ``model.last_issue``.
    """
    base = model.last_issue
    redirect = model.redirect_floor - base
    if redirect < 0:
        redirect = 0
    horizon = base - max_latency
    # a producer's miss stretch (the third component) shapes attribution
    # but never cycles: an interlock on the producer raises the issue
    # point by at most ``rel + max_latency`` and charges the first
    # ``stretch`` cycles of the raise to the miss, so the stretch is
    # capped at that raise — steady states that differ only in an old
    # miss digest identically
    producers = []
    for unit, (ready, token, stretch) in model.producers.items():
        if ready > horizon:
            rel = ready - base
            producers.append(
                (unit, rel, token, min(stretch, rel + max_latency))
            )
    producers.sort(key=itemgetter(0))
    temporals = sorted(
        (name, entry[0] - base, entry[1])
        for name, entry in model.temporal_producers.items()
        if entry[0] > horizon
    )
    ring = []
    ring_cycle = model.ring_cycle
    ring_mask = model.ring_mask
    for at in range(base, model._frontier + 1):
        slot = at & _RING_MASK
        if ring_cycle[slot] == at and ring_mask[slot]:
            ring.append((at - base, ring_mask[slot]))
    classes = sorted(
        (cycle - base, kinds)
        for cycle, kinds in model.cycle_classes.items()
        if cycle >= base
    )
    store = model.last_store_issue - base
    load = model.last_load_issue - base
    return (
        redirect,
        tuple(producers),
        tuple(temporals),
        tuple(ring),
        tuple(classes),
        store if store >= 0 else -1,
        load if load > 0 else 0,
    )


def load_state(model: PipelineModel, digest: tuple, base: int) -> None:
    """Materialize ``digest`` into ``model`` at absolute cycle ``base``.

    Only valid for bases at or beyond every absolute cycle the model has
    ever touched — the fast path's bases grow monotonically within a
    run, so a stale resource-ring slot can never alias a materialized
    cycle (its tag is always smaller)."""
    redirect, producers, temporals, ring, classes, store, load = digest
    model.last_issue = base
    model.redirect_floor = base + redirect
    model.producers = {
        unit: (base + rel, token, extra)
        for unit, rel, token, extra in producers
    }
    model.temporal_producers = {
        name: (base + rel, mnemonic) for name, rel, mnemonic in temporals
    }
    frontier = -1
    ring_cycle = model.ring_cycle
    ring_mask = model.ring_mask
    for rel, mask in ring:
        at = base + rel
        slot = at & _RING_MASK
        ring_cycle[slot] = at
        ring_mask[slot] = mask
        if rel > frontier:
            frontier = rel
    model.cycle_classes = {base + rel: kinds for rel, kinds in classes}
    if classes and classes[-1][0] > frontier:
        frontier = classes[-1][0]
    model._frontier = base + frontier if frontier >= 0 else base - 1
    model._horizon = base
    # stale watermarks materialize just below the issue point: the
    # ordering constraints they impose on cycles >= base are identical
    # to any older value's, and updates overwrite them the same way
    model.last_store_issue = base + store if store >= 0 else base - 1
    model.last_load_issue = base + load


class BlockTimingCache:
    """The exit-id-chained ``segment -> {transition_key(entry id, miss
    mask): (cycle delta, exit id, stall deltas)}`` memo, plus the replay
    machinery behind its misses.

    One instance is shared by every fast-path run over one (executable,
    miss-penalty) pair, so warmup paid by one simulation benefits the
    next.  Digests are interned to small integer ids and transitions are
    chained: the exit id a lookup returns is the entry id of the next
    lookup, so the (large) digest tuples are hashed only when a
    transition is replayed for the first time.  Callers that close the
    same static segment repeatedly (the segment JIT's probe sites) hold
    that segment's transition dict directly — see :meth:`transitions` —
    making a warm boundary one int-keyed ``dict.get`` with no call into
    this class at all."""

    EMPTY_ID = 0

    def __init__(
        self,
        target,
        instrs,
        miss_penalty: int | None,
        static: dict | None = None,
    ):
        # the replay's data cache: a rebuilt access carries the outcome
        # the functional side observed in its address field, and
        # ``access`` hands it back, so a replay never touches (or
        # double-counts in) the real cache model
        scripted = (
            SimpleNamespace(miss_penalty=miss_penalty, access=bool)
            if miss_penalty is not None
            else None
        )
        # every record also carries its per-hazard-kind stall deltas,
        # which makes ``SimOptions(trace=True)`` runs eligible for the
        # fast path (the breakdown is as transition-deterministic as the
        # cycle delta: both are functions of the replayed issue sequence)
        self.pipeline = PipelineModel(target, scripted, static=static)
        self._kind_names = tuple(self.pipeline.kind_cycles)
        self.max_latency = target_max_latency(target)
        self.instrs = instrs
        #: pc -> :func:`memory_accesses` of its instruction (replay only)
        self._accesses: dict[int, tuple] = {}
        self.digests: list[tuple] = [EMPTY_DIGEST]
        self._digest_ids: dict[tuple, int] = {EMPTY_DIGEST: 0}
        #: ``(entry, end, transfer) -> {transition_key(entry_id,
        #: miss_mask): (delta, exit_id, stall_deltas)}`` — the chained
        #: transition memo
        self.segments: dict[tuple, dict] = {}
        #: total records admitted across every segment dict (the
        #: :data:`MAX_ENTRIES` backstop counts the whole memo)
        self.entries = 0
        self.hits = 0
        self.misses = 0
        #: :func:`state_digest` invocations — one per first-visit replay,
        #: and the proof obligation that steady state is digest-free
        self.digests_computed = 0
        #: a new entry was admitted since the last artifact-cache persist
        self.dirty = False
        #: first absolute cycle no replay has ever touched — each run
        #: materializes at ``begin_run() + virtual cycle`` so ring tags
        #: from an earlier run can never alias a later, lower base
        self._next_base = 0

    def begin_run(self) -> int:
        """The absolute-cycle offset a new run must add to its virtual
        cycle counter before materializing states on this cache."""
        return self._next_base

    def transitions(self, entry: int, end: int, transfer: int) -> dict:
        """The transition dict of one static segment (created empty on
        first request).  The dict lives as long as this cache and is
        updated in place by :meth:`close`, so the dispatch loop binds
        each generated function's ``transitions(...).get`` getters once
        per run, and the function probes :func:`transition_key` keys
        with no further attribute or method lookups."""
        key = (entry, end, transfer)
        table = self.segments.get(key)
        if table is None:
            table = self.segments[key] = {}
        return table

    def close(
        self,
        entry: int,
        end: int,
        transfer: int,
        miss_mask: int,
        entry_id: int,
        base: int,
    ) -> tuple[int, int, tuple]:
        """Finish one segment; returns the full transition record
        ``(cycle delta, exit digest id, stall-kind deltas)`` — callers
        that only advance the chain index ``[0]`` and ``[1]``; trace
        runs accumulate ``[2]`` (ordered as :meth:`stall_kinds`).

        ``miss_mask`` has one bit per load the segment executed, in
        execution order, set for a data-cache miss; a replay rebuilds
        the segment's accesses from it.  ``base`` is the absolute issue
        cycle at segment entry.
        """
        key = (entry, end, transfer)
        table = self.segments.get(key)
        if table is None:
            table = self.segments[key] = {}
        transition = transition_key(entry_id, miss_mask)
        record = table.get(transition)
        if record is not None:
            self.hits += 1
            return record
        self.misses += 1
        record = self._replay(entry, end, transfer, miss_mask, entry_id, base)
        if self.entries < MAX_ENTRIES:
            table[transition] = record
            self.entries += 1
            self.dirty = True
        return record

    def stall_kinds(self) -> tuple:
        """Hazard-kind names, in the order every record's stall-delta
        tuple uses (:data:`~repro.obs.stalls.SIM_STALL_KINDS`)."""
        return self._kind_names

    # -- artifact-cache serialization ------------------------------------

    def export(self) -> dict:
        """A picklable snapshot of the memo: the interned digest list
        and the per-segment transition dicts (digests appear as ids —
        indices into the digest list — so the snapshot is
        self-contained)."""
        return {
            "digests": list(self.digests),
            "segments": {
                key: dict(table) for key, table in self.segments.items()
            },
        }

    def preload(self, payload: dict) -> bool:
        """Adopt an :meth:`export` snapshot wholesale; only valid on a
        virgin cache (no lookups yet).  Returns False (and changes
        nothing) when the payload fails its sanity checks — the cache
        then just warms up normally."""
        if self.segments or len(self.digests) != 1:
            return False
        try:
            digests = [tuple(digest) for digest in payload["digests"]]
            segments = {
                key: dict(table)
                for key, table in payload["segments"].items()
            }
        except (KeyError, TypeError, AttributeError):
            return False
        if not digests or digests[0] != EMPTY_DIGEST:
            return False
        kinds = len(self._kind_names)
        total = 0
        for seg_key, table in segments.items():
            if len(seg_key) != 3:
                return False
            for key, record in table.items():
                if not isinstance(key, int) or key < 0 or len(record) != 3:
                    return False
                if not (
                    (key & 0xFFFFFFFF) < len(digests)
                    and 0 <= record[1] < len(digests)
                ):
                    return False
                if (
                    not isinstance(record[2], tuple)
                    or len(record[2]) != kinds
                ):
                    return False
                total += 1
        self.digests = digests
        self._digest_ids = {
            digest: index for index, digest in enumerate(digests)
        }
        self.segments = segments
        self.entries = total
        return True

    def _replay(
        self, entry: int, end: int, transfer: int, miss_mask, entry_id, base
    ) -> tuple[int, int, tuple]:
        model = self.pipeline
        load_state(model, self.digests[entry_id], base)
        instrs = self.instrs
        accesses = self._accesses
        issue = model.issue
        kind_cycles = model.kind_cycles
        kinds = self._kind_names
        before = tuple(kind_cycles[kind] for kind in kinds)
        transfer_cycle = 0
        for pc in range(entry, end + 1):
            script = accesses.get(pc)
            if script is None:
                script = accesses[pc] = memory_accesses(
                    instrs[pc].desc.semantics
                )
            # (outcome, is_write, size): see the scripted cache
            mem_log = []
            for is_write in script:
                if is_write:
                    mem_log.append((True, True, 0))
                else:
                    mem_log.append((not miss_mask & 1, False, 0))
                    miss_mask >>= 1
            cycle = issue(instrs[pc], mem_log)
            if pc == transfer:
                transfer_cycle = cycle
        if transfer >= 0:
            model.transfer(instrs[transfer], transfer_cycle)
        top = model._frontier
        if model.last_issue > top:
            top = model.last_issue
        if top + 1 > self._next_base:
            self._next_base = top + 1
        self.digests_computed += 1
        digest = state_digest(model, self.max_latency)
        exit_id = self._digest_ids.get(digest)
        if exit_id is None:
            exit_id = len(self.digests)
            self.digests.append(digest)
            self._digest_ids[digest] = exit_id
        breakdown = tuple(
            kind_cycles[kind] - start for kind, start in zip(kinds, before)
        )
        return (model.last_issue - base, exit_id, breakdown)
