"""Seeded C-subset programs with an independent Python reference.

Each generated program is one function, ``double gen(int a, int b)``,
whose body is a single long basic block: no branches or loops, so the
block handed to the list scheduler grows with the statement count.  That
is the input property list scheduling (and the allocator behind it)
scales with, which is why the compile workload varies it.

A program's *shape* (which operation each statement applies to which
variables, and the sign of each literal) depends only on its statement
count; the seed draws the arguments, the shift amounts and the
magnitudes of the integer literals.  So every seed asks the compiler for
the same work, and compile time does not move with the seed, while the
values computed, and checked, differ from seed to seed.

The reference evaluates the same statements in Python with C's 32-bit
wrap-around integer semantics and IEEE doubles in the same operation
order.  It shares no code with the compiler or the simulator, so a
wrong schedule, a lost spill or a miscompiled operation shows up as a
mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: statement counts of the generated programs; fixed, so every seed does
#: the same amount of work and only the program text changes
SIZES = (6, 12, 18, 24, 30, 36, 42, 48)

#: few variables, so live ranges stay short: the block is long, not
#: register-bound (16 live ints overflow TOYP's allocator, and spill-heavy
#: blocks would turn the workload into an allocator benchmark)
_INTS = 6
_DOUBLES = 3
_INT_OPS = ("+", "-", "*", "&", "|", "^")
#: |c1| + |c2| <= 1.25 bounds each double's growth per statement
_COEFFS = (0.5, 0.25, 0.375, -0.5, 0.625, -0.25)
#: literal magnitudes the seed draws from, each at most once per program
#: (the compiler shares a constant used twice): all fit every target's
#: immediate field, none equals a shift amount, and none is 0, 1 or a
#: power of two, which the compiler folds or strength-reduces; so no
#: draw changes the code the compiler emits
_MAGNITUDES = tuple(k for k in range(9, 1000) if k & (k - 1))


def wrap32(value: int) -> int:
    """C's 32-bit two's-complement wrap-around."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def _apply(op: str, left: int, right: int) -> int:
    if op == "+":
        return wrap32(left + right)
    if op == "-":
        return wrap32(left - right)
    if op == "*":
        return wrap32(left * right)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return wrap32(left << right)
    if op == ">>":
        return left >> right
    raise ValueError(op)


@dataclass(frozen=True)
class Program:
    """One generated program: its C text, entry point, arguments and the
    value the reference computes for them."""

    name: str
    statements: int
    source: str
    entry: str
    args: tuple
    expected: float


def generate(seed: int, statements: int, name: str = "gen") -> Program:
    """A ``statements``-long straight-line program drawn from ``seed``.

    The same ``(seed, statements)`` always yields the same text,
    arguments and expected value; the same ``statements`` always yields
    the same shape.
    """
    shape = random.Random(f"shape:{statements}")
    draw = random.Random(f"{seed}:{statements}")
    a = draw.randint(-1000, 1000)
    b = draw.randint(-1000, 1000)
    magnitudes = list(_MAGNITUDES)
    draw.shuffle(magnitudes)
    ints = [f"i{k}" for k in range(_INTS)]
    doubles = [f"d{k}" for k in range(_DOUBLES)]
    value = {var: wrap32(a + k * b) for k, var in enumerate(ints)}
    # doubles start from the arguments, never from a bare literal, and
    # with a coefficient the statements never use (see the loop below)
    value.update({d: float(value[i]) * 0.125 for d, i in zip(doubles, ints)})
    lines = [
        f"double {name}(int a, int b) {{",
        f"    int {', '.join(ints)};",
        f"    double {', '.join(doubles)};",
    ]
    lines += [f"    {var} = a + {k} * b;" for k, var in enumerate(ints)]
    lines += [f"    {d} = (double){i} * 0.125;" for d, i in zip(doubles, ints)]
    # The compiler reuses an already computed value for a repeated
    # expression even when that value lives in a variable reassigned
    # since (bench/README.md, "Known compiler defects").  So no
    # right-hand side may reappear over unchanged operands, neither as a
    # whole statement nor inside one: statements are deduplicated below
    # by their shape, whatever numbers the seed puts in them, and the
    # shapes keep a whole right-hand side (a `+` of products, an
    # operation with a literal, a shift) from matching a later inner
    # operand (a product, a cast, an operation of two variables).
    version = dict.fromkeys(value, 0)
    seen = set()
    emitted = 0
    while emitted < statements:
        roll = shape.random()
        if roll < 0.25:
            dst, src = shape.choice(doubles), shape.choice(doubles)
            c1, c2 = shape.choice(_COEFFS), shape.choice(_COEFFS)
            if shape.random() < 0.5:
                other = shape.choice(doubles)
                rhs = f"{src} * {c1!r} + {other} * {c2!r}"
                result = value[src] * c1 + value[other] * c2
            else:
                other = shape.choice(ints)
                rhs = f"{src} * {c1!r} + (double){other} * {c2!r}"
                result = value[src] * c1 + float(value[other]) * c2
            form, used = rhs, (src, other)
        elif roll < 0.40:
            dst, left = shape.choice(ints), shape.choice(ints)
            op, shift = shape.choice(("<<", ">>")), draw.randint(1, 7)
            form = f"{left} {op} #"
            rhs = f"{left} {op} {shift}"
            result = _apply(op, value[left], shift)
            used = (left,)
        else:
            dst, left, right = (shape.choice(ints) for _ in range(3))
            op1, op2 = shape.choice(_INT_OPS), shape.choice(_INT_OPS)
            # the sign is shape: a negative literal does not fit the
            # zero-extended immediate of a logical operation
            sign = shape.choice((1, -1))
            literal = sign * magnitudes.pop()
            form = f"({left} {op1} {right}) {op2} {'-' if sign < 0 else ''}#"
            rhs = f"({left} {op1} {right}) {op2} {literal}"
            result = _apply(op2, _apply(op1, value[left], value[right]), literal)
            used = (left, right)
        key = (form, tuple(version[var] for var in used))
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"    {dst} = {rhs};")
        value[dst] = result
        version[dst] += 1
        emitted += 1
    checksum = 0
    for var in ints:
        checksum ^= value[var]
    total = float(checksum)
    for var in doubles:
        total = total + value[var]
    lines.append(
        f"    return (double)({' ^ '.join(ints)}) + {' + '.join(doubles)};"
    )
    lines.append("}")
    return Program(
        name=f"{name}{statements}",
        statements=statements,
        source="\n".join(lines) + "\n",
        entry=name,
        args=(a, b),
        expected=total,
    )


def generate_suite(seed: int) -> list[Program]:
    """One program per entry of :data:`SIZES`, all drawn from ``seed``."""
    return [generate(seed, size) for size in SIZES]
