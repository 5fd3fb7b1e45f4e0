"""Register model with aliasing *units*.

Maril's ``%equiv`` directive says that one register set overlays another
(paper: the TOYP ``d`` doubles overlay the ``r`` integers).  We model this
with 32-bit *units*: every register set belongs to a *register file*, and a
physical register occupies one or more consecutive units of that file.  Two
physical registers interfere iff their unit sets intersect, which makes
register pairs fall out of graph coloring naturally, and lets the simulator
store a double as two 32-bit halves the way the hardware does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MarionError
from repro.maril.sema import TYPE_SIZES

UNIT_BITS = 32


@dataclass(frozen=True)
class PhysReg:
    """One physical register: ``set_name[index]``."""

    set_name: str
    index: int

    def __str__(self) -> str:
        return f"{self.set_name}[{self.index}]"

    def __repr__(self) -> str:
        return f"PhysReg({self})"


@dataclass
class RegisterSet:
    """A register array from a ``%reg`` declaration, after CGG compilation."""

    name: str
    lo: int
    hi: int
    types: tuple[str, ...]
    clock: str | None
    is_temporal: bool
    file_id: int = 0
    units_per_reg: int = 1
    unit_offset: int = 0  # unit index of register `lo` within the file

    @property
    def size_bits(self) -> int:
        if not self.types:
            return UNIT_BITS
        return max(TYPE_SIZES[t] for t in self.types)

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1

    def registers(self) -> list[PhysReg]:
        return [PhysReg(self.name, i) for i in range(self.lo, self.hi + 1)]


@dataclass
class RegisterModel:
    """All register sets of a target, with the file/unit aliasing map."""

    sets: dict[str, RegisterSet] = field(default_factory=dict)
    file_sizes: dict[int, int] = field(default_factory=dict)  # file_id -> unit count
    #: memoized units_of and unit_keys results, keyed on (set_name, index),
    #: which hashes faster than a PhysReg (hot path for liveness, the code
    #: DAG and simulation); pickled empty, since every executable carries
    #: its target
    _units: dict = field(default_factory=dict, repr=False)
    _unit_keys: dict = field(default_factory=dict, repr=False)

    def __getstate__(self):
        return dict(self.__dict__, _units={}, _unit_keys={})

    def set(self, name: str) -> RegisterSet:
        try:
            return self.sets[name]
        except KeyError:
            raise MarionError(f"unknown register set {name!r}") from None

    def units_of(self, reg: PhysReg) -> tuple[tuple[int, int], ...]:
        """The (file_id, unit_index) pairs a physical register occupies."""
        key = (reg.set_name, reg.index)
        units = self._units.get(key)
        if units is None:
            rset = self.set(reg.set_name)
            base = rset.unit_offset + (reg.index - rset.lo) * rset.units_per_reg
            units = self._units[key] = tuple(
                (rset.file_id, base + k) for k in range(rset.units_per_reg)
            )
        return units

    def unit_keys(self, reg: PhysReg) -> tuple[tuple[str, int, int], ...]:
        """:meth:`units_of` as liveness entities: ``("u", file_id, unit)``."""
        key = (reg.set_name, reg.index)
        keys = self._unit_keys.get(key)
        if keys is None:
            keys = self._unit_keys[key] = tuple(
                ("u",) + unit for unit in self.units_of(reg)
            )
        return keys

    def interfere(self, a: PhysReg, b: PhysReg) -> bool:
        """True iff the two physical registers share any unit."""
        if a == b:
            return True
        units_a = self.units_of(a)
        units_b = set(self.units_of(b))
        return any(u in units_b for u in units_a)

    def temporal_sets(self) -> list[RegisterSet]:
        return [s for s in self.sets.values() if s.is_temporal]
