"""List scheduling (paper sections 4.2-4.6).

The scheduler keeps a ready list of DAG nodes whose predecessors have been
scheduled; each cycle it issues, in priority order (maximum distance to a
leaf), every ready instruction that

* has satisfied its dependence-edge delays,
* causes no structural hazard against the composite resource vector of all
  currently executing instructions (section 4.3),
* can be *packed* with the sub-operations already issued this cycle: the
  intersection of packing classes must stay non-empty (section 4.5), and
* respects Rule 1 for explicitly advanced pipelines: while the scheduler is
  scheduling across a temporal edge based on clock k, an instruction that
  affects k may not issue before the pending destination, but may be packed
  with it on the same cycle (section 4.6).

The block's control instruction issues last and its delay slots are filled
with nops (section 4.4).  An optional register-use limit implements the
IPS strategy's pressure-bounded first pass.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.backend.codedag import CodeDag, DagNode, build_code_dag
from repro.backend.insts import MachineInstr, make_instr
from repro.machine.resources import commit, conflicts
from repro.errors import SchedulingError
from repro.il.node import PseudoReg
from repro.machine.target import TargetMachine
from repro.obs import stalls


@dataclass
class ScheduleResult:
    """Outcome of scheduling one basic block."""

    instrs: list[MachineInstr]  # final order, including delay-slot nops
    cost: int  # estimated block execution cycles
    issue_cycle: dict[int, int] = field(default_factory=dict)  # instr.id -> cycle
    #: every nop or issue delay this schedule commits, as (cycle, reason)
    #: events in cycle order — idle cycles classified by the scheduler,
    #: plus one ``branch_delay`` event per inserted delay-slot nop; empty
    #: when the scheduler does not classify stalls
    stall_events: list[tuple[int, str]] = field(default_factory=list)
    #: committed nop slots: idle cycles in the schedule plus inserted
    #: delay-slot nops.  Equals ``sum(self.stalls.values())`` whenever
    #: stalls are classified — both sides are derived independently and
    #: tested for conservation.
    nop_slots: int = 0
    #: the block's own instructions in the same order, without the
    #: delay-slot nops: what an estimate pass adopts
    order: list[MachineInstr] = field(default_factory=list)

    def cycle_of(self, instr: MachineInstr) -> int:
        return self.issue_cycle[instr.id]

    @property
    def stalls(self) -> dict[str, int]:
        """Stall-reason histogram (reason code -> slot count)."""
        out: dict[str, int] = {}
        for _cycle, reason in self.stall_events:
            out[reason] = out.get(reason, 0) + 1
        return out


class ListScheduler:
    """A target-parameterised list scheduler.

    ``classify_stalls=False`` skips naming the reason for each idle cycle,
    for passes whose stall events nobody reads; the schedule is the same.
    """

    def __init__(
        self,
        target: TargetMachine,
        heuristic: str = "maxdist",
        register_limit: int | None = None,
        classify_stalls: bool = True,
    ):
        if heuristic not in ("maxdist", "fifo"):
            raise ValueError(f"unknown scheduling heuristic {heuristic!r}")
        self.target = target
        self.heuristic = heuristic
        self.register_limit = register_limit
        self.classify_stalls = classify_stalls

    # -- public API -----------------------------------------------------------

    def schedule_block(self, instrs: list[MachineInstr]) -> ScheduleResult:
        """List-schedule one basic block's instructions."""
        if not instrs:
            return ScheduleResult([], 0)
        dag = build_code_dag(instrs, self.target)
        return _BlockScheduler(self, dag).run()


class _BlockScheduler:
    def __init__(self, config: ListScheduler, dag: CodeDag):
        self.config = config
        self.target = config.target
        self.dag = dag
        self.nodes = dag.nodes
        # a block normally has one control instruction; conditional blocks
        # carry a CJUMP followed by the explicit false-path JUMP, which must
        # issue last, in thread order
        self.controls = [n for n in self.nodes if n.instr.is_branch_or_jump]
        self.control_set = set(self.controls)
        #: the controls not issued yet, in thread order
        self.pending_controls = list(self.controls)
        self.unscheduled = len(self.nodes)
        self.issue_cycle: dict[DagNode, int] = {}
        self.earliest: dict[DagNode, int] = {}
        self.pred_count = {n: len(n.preds) for n in self.nodes}
        # the ready list: entries sorted on the scheduling heuristic
        # (maxdist: highest priority first, thread order as the tie-break;
        # fifo: thread order), the node last.  Thread indices are unique,
        # so two entries never compare their nodes.
        if config.heuristic == "maxdist":
            self._ready_key = lambda n: (-n.priority, n.index, n)
        else:
            self._ready_key = lambda n: (n.index, n)
        self.ready: list[tuple] = sorted(
            self._ready_key(n) for n in self.nodes if self.pred_count[n] == 0
        )
        for entry in self.ready:
            self.earliest[entry[-1]] = 0
        self.resource_use: dict[int, int] = {}  # cycle -> mask
        self.cycle_classes: frozenset | None = None  # intersection this cycle
        self.pending_temporal: dict[str, set[DagNode]] = {}
        self.order: list[DagNode] = []
        #: idle cycles, classified as they happen: (cycle, reason code)
        self.stall_events: list[tuple[int, str]] = []
        #: node -> mnemonic of the producer whose edge set its earliest
        self.earliest_cause: dict[DagNode, str] = {}
        self._setup_pressure()

    # -- register-pressure bookkeeping (IPS limit) ------------------------------

    def _setup_pressure(self) -> None:
        self.remaining_uses: dict[int, int] = {}
        self.live: set[int] = set()
        #: node -> ids of the block-local pseudos it reads, and writes
        self.local_regs: dict[DagNode, tuple[list[int], list[int]]] = {}
        if self.config.register_limit is None:
            return
        for node in self.nodes:
            uses = [
                reg.id
                for reg in node.instr.uses()
                if isinstance(reg, PseudoReg) and not reg.is_global
            ]
            defs = [
                reg.id
                for reg in node.instr.defs()
                if isinstance(reg, PseudoReg) and not reg.is_global
            ]
            self.local_regs[node] = (uses, defs)
            for reg_id in uses:
                self.remaining_uses[reg_id] = (
                    self.remaining_uses.get(reg_id, 0) + 1
                )

    def _pressure_delta(self, node: DagNode) -> int:
        uses, defs = self.local_regs[node]
        delta = 0
        freed: set[int] = set()
        for reg_id in uses:
            if (
                reg_id in self.live
                and self.remaining_uses.get(reg_id, 0) <= 1
                and reg_id not in freed
            ):
                delta -= 1
                freed.add(reg_id)
        for reg_id in defs:
            if reg_id not in self.live or reg_id in freed:
                delta += 1
        return delta

    def _apply_pressure(self, node: DagNode) -> None:
        if self.config.register_limit is None:
            return
        uses, defs = self.local_regs[node]
        for reg_id in uses:
            count = self.remaining_uses.get(reg_id, 0) - 1
            self.remaining_uses[reg_id] = count
            if count <= 0:
                self.live.discard(reg_id)
        for reg_id in defs:
            if self.remaining_uses.get(reg_id, 0) > 0:
                self.live.add(reg_id)

    # -- main loop ----------------------------------------------------------

    def run(self) -> ScheduleResult:
        classify = self.config.classify_stalls
        cycle = 0
        guard = 0
        limit = 64 + sum(
            n.instr.desc.latency + len(n.instr.desc.resource_vector)
            for n in self.nodes
        ) + 4 * len(self.nodes)
        earliest = self.earliest
        while self.unscheduled > 0:
            self.cycle_classes = None
            before = self.unscheduled
            self._issue_all_possible(cycle)
            step = 1
            if self.unscheduled == before:
                # an idle cycle: the hardware (or a nop) will fill it.  When
                # every ready node waits on a dependence latency, nothing
                # can issue, so nothing changes, before the first is due:
                # the cycles up to then are idle for the same reason.
                due = min(
                    (earliest[entry[-1]] for entry in self.ready), default=cycle
                )
                step = max(1, due - cycle)
                if classify:
                    # classify why before moving the clock
                    reason = self._classify_stall(cycle)
                    self.stall_events.extend(
                        (idle, reason) for idle in range(cycle, cycle + step)
                    )
            cycle += step
            guard += step
            if guard > limit:
                raise SchedulingError(
                    "scheduler made no progress (possible temporal deadlock); "
                    f"{self.unscheduled} instructions remain"
                )
        return self._finish()

    def _issue_all_possible(self, cycle: int) -> None:
        issued_something = True
        while issued_something:
            issued_something = False
            if self._try_issue_temporal_groups(cycle):
                issued_something = True
                continue
            candidates = self._candidates(cycle)
            for node in candidates:
                if self._can_issue(node, cycle):
                    self._issue(node, cycle)
                    issued_something = True
                    break  # re-evaluate candidates after each issue

    def _try_issue_temporal_groups(self, cycle: int) -> bool:
        """Issue a whole temporal group atomically (section 4.6).

        All pending destinations of temporal edges on one clock form a
        temporal group and are "pre-packed": they must advance together,
        because each affects the clock the others are waiting on.  When
        more than one destination is pending, individual issue is blocked
        by Rule 1, so the group is placed as a single unit here.
        """
        for clock, pending in self.pending_temporal.items():
            group = [n for n in pending if n not in self.issue_cycle]
            if len(group) < 2:
                continue  # single destinations issue through the normal path
            if any(self.pred_count[n] != 0 or self.earliest.get(n, 0) > cycle
                   for n in group):
                continue
            if not self._group_fits(group, cycle):
                continue
            for node in sorted(group, key=lambda n: n.index):
                self._issue(node, cycle)
            return True
        return False

    def _group_fits(self, group: list[DagNode], cycle: int) -> bool:
        usage = dict(self.resource_use)
        classes = self.cycle_classes
        for node in group:
            for offset, need in enumerate(node.instr.desc.resource_vector):
                if conflicts(usage.get(cycle + offset, 0), need):
                    return False
                usage[cycle + offset] = commit(usage.get(cycle + offset, 0), need)
            node_classes = node.instr.desc.classes
            if node_classes:
                classes = node_classes if classes is None else classes & node_classes
                if not classes:
                    return False
        return True

    def _candidates(self, cycle: int) -> list[DagNode]:
        earliest = self.earliest
        ready = [
            entry[-1] for entry in self.ready if earliest[entry[-1]] <= cycle
        ]
        pending_controls = self.pending_controls
        if pending_controls:
            # control instructions end the block: hold them back until only
            # control remains, then release them one at a time in thread
            # order
            if self.unscheduled > len(pending_controls):
                controls = self.control_set
                ready = [n for n in ready if n not in controls]
            else:
                first = pending_controls[0]
                ready = [n for n in ready if n is first]
        limit = self.config.register_limit
        if limit is not None and len(self.live) >= limit:
            # the limit is a preference, Rule 1 a constraint: keep the
            # filter only if something it keeps can make progress
            relaxed = [n for n in ready if self._pressure_delta(n) <= 0]
            if any(not self._rule1_blocked(n) for n in relaxed):
                ready = relaxed
        return ready

    def _rule1_blocked(self, node: DagNode) -> bool:
        """Rule 1: an instruction affecting clock k may not be scheduled
        before a pending temporal destination on k (but may pack with
        it, i.e. the destination has already issued this very cycle)."""
        clock = node.instr.desc.affects_clock
        if clock is None:
            return False
        pending = self.pending_temporal.get(clock)
        return bool(pending) and bool(pending - {node})

    def _can_issue(self, node: DagNode, cycle: int) -> bool:
        resource_use = self.resource_use
        masks = node.instr.desc.vector_fastpath()
        if masks is not None:
            for offset, mask in enumerate(masks):
                if mask and resource_use.get(cycle + offset, 0) & mask:
                    return False
        else:
            vector = node.instr.desc.resource_vector
            for offset, need in enumerate(vector):
                if conflicts(resource_use.get(cycle + offset, 0), need):
                    return False
        classes = node.instr.desc.classes
        if classes and self.cycle_classes is not None:
            if not (classes & self.cycle_classes):
                return False
        return not self._rule1_blocked(node)

    def _issue(self, node: DagNode, cycle: int) -> None:
        ready = self.ready
        at = bisect.bisect_left(ready, self._ready_key(node))
        if at == len(ready) or ready[at][-1] is not node:
            raise SchedulingError(f"{node} issued while not on the ready list")
        del ready[at]
        if node in self.control_set:
            self.pending_controls.remove(node)
        self.issue_cycle[node] = cycle
        self.unscheduled -= 1
        self.order.append(node)
        resource_use = self.resource_use
        masks = node.instr.desc.vector_fastpath()
        if masks is not None:
            for offset, mask in enumerate(masks):
                at = cycle + offset
                resource_use[at] = resource_use.get(at, 0) | mask
        else:
            vector = node.instr.desc.resource_vector
            for offset, need in enumerate(vector):
                resource_use[cycle + offset] = commit(
                    resource_use.get(cycle + offset, 0), need
                )
        classes = node.instr.desc.classes
        if classes:
            self.cycle_classes = (
                classes
                if self.cycle_classes is None
                else self.cycle_classes & classes
            )
        self._apply_pressure(node)
        # release successors
        for edge in node.succs:
            dst = edge.dst
            self.pred_count[dst] -= 1
            when = cycle + edge.latency
            previous = self.earliest.get(dst)
            if previous is None or when > previous:
                self.earliest[dst] = when
                if edge.latency > 0:
                    # remember who the successor is now waiting on, so an
                    # idle cycle can name its producer (latency(mnemonic))
                    self.earliest_cause[dst] = node.instr.desc.mnemonic
            if self.pred_count[dst] == 0:
                bisect.insort(self.ready, self._ready_key(dst))
            if edge.is_temporal and dst not in self.issue_cycle:
                self.pending_temporal.setdefault(edge.clock, set()).add(dst)
        # this node is no longer pending anywhere
        for pending in self.pending_temporal.values():
            pending.discard(node)

    # -- stall attribution --------------------------------------------------

    def _classify_stall(self, cycle: int) -> str:
        """Why did this cycle pass with nothing issued?

        Runs only on idle cycles, so it can afford to re-derive the
        scheduler's view: ready-but-blocked instructions name the hazard
        that blocked them; otherwise the wait is a dependence latency
        (named after the producer) or a genuinely empty ready list.
        """
        ready = [entry[-1] for entry in self.ready]
        if not ready:
            return stalls.EMPTY_READY_LIST
        runnable = [n for n in ready if self.earliest.get(n, 0) <= cycle]
        # mirror _candidates' control holdback: a control waiting for the
        # rest of the block is not the cause — the instructions it waits
        # on are
        controls = self.control_set
        pending_controls = self.pending_controls
        if pending_controls and self.unscheduled > len(pending_controls):
            runnable = [n for n in runnable if n not in controls]
        elif pending_controls:
            first = pending_controls[0]
            runnable = [n for n in runnable if n not in controls or n is first]
        if runnable:
            node = min(runnable, key=lambda n: n.index)
            return self._blocked_reason(node, cycle)
        waiting = [n for n in ready if self.earliest.get(n, 0) > cycle]
        if waiting:
            node = min(waiting, key=lambda n: (self.earliest[n], n.index))
            cause = self.earliest_cause.get(node)
            return stalls.latency(cause) if cause else stalls.LATENCY
        return stalls.EMPTY_READY_LIST

    def _blocked_reason(self, node: DagNode, cycle: int) -> str:
        """Mirror :meth:`_can_issue` and report the first failing check."""
        resource_use = self.resource_use
        for offset, need in enumerate(node.instr.desc.resource_vector):
            usage = resource_use.get(cycle + offset, 0)
            if conflicts(usage, need):
                names = self.target.resources.conflict_names(usage, need)
                return stalls.resource_conflict(names[0] if names else "?")
        classes = node.instr.desc.classes
        if classes and self.cycle_classes is not None:
            if not (classes & self.cycle_classes):
                return stalls.PACKING_CONFLICT
        if self._rule1_blocked(node):
            return stalls.TEMPORAL_RULE1
        return stalls.EMPTY_READY_LIST

    def _ordered_for_emission(self) -> list[DagNode]:
        """Emission order: by cycle, and *within* a cycle in dependence
        order.  Packed sub-operations of an explicitly advanced pipeline
        carry 0-latency anti edges (a stage must read its input latch before
        the co-issued earlier stage advances it); sequential execution of
        the packed long instruction is only faithful if those edges are
        respected in the emitted order."""
        by_cycle: dict[int, list[DagNode]] = {}
        for node in self.order:
            by_cycle.setdefault(self.issue_cycle[node], []).append(node)
        out: list[DagNode] = []
        for cycle in sorted(by_cycle):
            group = by_cycle[cycle]
            if len(group) == 1:
                out.extend(group)
                continue
            members = set(group)
            pending = {
                n: sum(1 for e in n.preds if e.src in members) for n in group
            }
            emitted: list[DagNode] = []
            ready = [n for n in group if pending[n] == 0]
            while ready:
                ready.sort(key=lambda n: n.index)
                node = ready.pop(0)
                emitted.append(node)
                for edge in node.succs:
                    if edge.dst in members:
                        pending[edge.dst] -= 1
                        if pending[edge.dst] == 0:
                            ready.append(edge.dst)
            if len(emitted) != len(group):  # cycle among packed ops: keep input order
                emitted = sorted(group, key=lambda n: n.index)
            out.extend(emitted)
        return out

    def _finish(self) -> ScheduleResult:
        order: list[MachineInstr] = []
        issue_map: dict[int, int] = {}
        last_cycle = 0
        for node in self._ordered_for_emission():
            order.append(node.instr)
            cycle = self.issue_cycle[node]
            issue_map[node.instr.id] = cycle
            last_cycle = max(last_cycle, cycle)
        cost = last_cycle + 1
        instrs = list(order)
        events = list(self.stall_events)
        nops_inserted = 0
        for control in self.controls:
            branch_cycle = self.issue_cycle[control]
            slots = abs(control.instr.desc.slots)
            position = instrs.index(control.instr) + 1
            for slot in range(slots):
                nop = make_instr(self.target.nop, [])
                nop.comment = "delay slot"
                instrs.insert(position + slot, nop)
                issue_map[nop.id] = branch_cycle + 1 + slot
                events.append((branch_cycle + 1 + slot, stalls.BRANCH_DELAY))
                nops_inserted += 1
            cost = max(cost, branch_cycle + 1 + slots)
        events.sort(key=lambda event: event[0])
        # conservation: nop slots are derived from the issue map, not from
        # the event list — idle cycles up to the last issue, plus the nops
        idle = (last_cycle + 1) - len(set(self.issue_cycle.values()))
        return ScheduleResult(
            instrs,
            cost,
            issue_map,
            stall_events=events if self.config.classify_stalls else [],
            nop_slots=idle + nops_inserted,
            order=order,
        )
