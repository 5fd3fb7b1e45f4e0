"""Shared test utilities."""

from repro.backend.insts import Imm, Lab, MachineInstr, Reg, make_instr
from repro.machine.instruction import OperandMode
from repro.sim import Simulator


def _ignore(pc, instr, cycle):
    pass


def simulate_oracle(executable, function, args=(), options=None):
    """Run ``function`` on the reference interleaved model, the
    engine's test oracle: a ``watch=`` callback needs per-instruction
    issue cycles, which only that model produces."""
    return Simulator(executable, options).run(function, args, watch=_ignore)


def find_desc(target, mnemonic, operands):
    """Find the descriptor variant whose operand shapes fit ``operands``
    (several directives may share a mnemonic, e.g. TOYP's three ``add``)."""
    candidates = [
        d for d in target.instructions.values() if d.mnemonic == mnemonic
    ]
    for desc in candidates:
        if len(desc.operands) != len(operands):
            continue
        ok = True
        for spec, operand in zip(desc.operands, operands):
            if isinstance(operand, Reg):
                if spec.mode is OperandMode.FIXED_REG:
                    from repro.machine.registers import PhysReg

                    fixed = PhysReg(spec.set_name, spec.reg_index)
                    if operand.reg != fixed:
                        ok = False
                elif spec.mode is not OperandMode.REG:
                    ok = False
            elif isinstance(operand, Imm) and spec.mode is not OperandMode.IMM:
                ok = False
            elif isinstance(operand, Lab) and spec.mode is not OperandMode.LABEL:
                ok = False
            elif operand is None and spec.mode is not OperandMode.FIXED_REG:
                ok = False
        if ok:
            return desc
    if candidates:
        return candidates[0]
    raise KeyError(mnemonic)


def build(target, mnemonic, *operands) -> MachineInstr:
    """Build a machine instruction, padding fixed-register slots."""
    # try exact shape first, then with None padding for fixed registers
    desc = None
    for padding in range(3):
        shaped = list(operands) + [None] * padding
        try:
            desc = find_desc(target, mnemonic, shaped)
        except KeyError:
            raise
        if len(desc.operands) == len(shaped):
            return make_instr(desc, shaped)
    return make_instr(desc, list(operands))


def paper_sources() -> list[str]:
    """The sources of every suite program and Livermore kernel."""
    from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE

    return [p.source for p in PROGRAM_SUITE] + [
        k.source for k in LIVERMORE_KERNELS
    ]


def compile_paper_programs(targets) -> None:
    """Compile every suite program and Livermore kernel on each of
    ``targets`` under all three strategies; tests patch a pass first to
    watch it on real code."""
    import repro

    sources = paper_sources()
    for target in targets:
        for strategy in ("postpass", "ips", "rase"):
            options = repro.CompileOptions(strategy=strategy)
            for source in sources:
                repro.compile_c(source, target, options)
