"""AST for the C subset."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SourceLocation

# -- types -------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    """``base`` is 'int' | 'float' | 'double' | 'void'; dims for arrays."""

    base: str
    dims: tuple[int, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    def element(self) -> "CType":
        return CType(self.base, self.dims[1:])

    def __str__(self) -> str:
        return self.base + "".join(f"[{d}]" for d in self.dims)


TYPE_RANK = {"int": 0, "float": 1, "double": 2}


def usual_conversion(a: str, b: str) -> str:
    """The usual arithmetic conversions over our three scalar types."""
    return a if TYPE_RANK[a] >= TYPE_RANK[b] else b


# -- expressions ------------------------------------------------------------


class CExpr:
    """Base class; ``ctype`` (a scalar type name) is filled by the checker."""

    ctype: str | None = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class IntLit(CExpr):
    value: int
    location: SourceLocation | None = None


@dataclass(eq=False)
class FloatLit(CExpr):
    value: float
    location: SourceLocation | None = None


@dataclass(eq=False)
class VarRef(CExpr):
    name: str
    location: SourceLocation | None = None


@dataclass(eq=False)
class Index(CExpr):
    """``a[i]`` or ``a[i][j]`` — base is a VarRef to an array."""

    base: "VarRef"
    indices: list[CExpr] = field(default_factory=list)
    location: SourceLocation | None = None


@dataclass(eq=False)
class Unary(CExpr):
    op: str  # '-', '~', '!'
    operand: CExpr = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class Binary(CExpr):
    op: str
    left: CExpr = None
    right: CExpr = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class Logical(CExpr):
    """Short-circuit ``&&`` / ``||``."""

    op: str
    left: CExpr = None
    right: CExpr = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class Assign(CExpr):
    """``target = value`` (or compound ``op=``); target VarRef or Index."""

    target: CExpr = None
    value: CExpr = None
    op: str = "="  # '=', '+=', '-=', '*=', '/=', '%='
    location: SourceLocation | None = None


@dataclass(eq=False)
class IncDec(CExpr):
    """``x++`` / ``--x``; only valid where the value is discarded."""

    target: CExpr = None
    op: str = "++"
    prefix: bool = False
    location: SourceLocation | None = None


@dataclass(eq=False)
class Call(CExpr):
    name: str = ""
    args: list[CExpr] = field(default_factory=list)
    location: SourceLocation | None = None


@dataclass(eq=False)
class Cast(CExpr):
    """Implicit conversion inserted by the type checker."""

    to: str = "int"
    operand: CExpr = None
    location: SourceLocation | None = None


# -- statements ---------------------------------------------------------------


class CStmt:
    location: SourceLocation | None = None


@dataclass(eq=False)
class DeclStmt(CStmt):
    type: CType = None
    name: str = ""
    init: CExpr | None = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class ExprStmt(CStmt):
    expr: CExpr = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class IfStmt(CStmt):
    condition: CExpr = None
    then_body: "Block" = None
    else_body: "Block | None" = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class WhileStmt(CStmt):
    condition: CExpr = None
    body: "Block" = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class ForStmt(CStmt):
    init: CStmt | None = None
    condition: CExpr | None = None
    step: CExpr | None = None
    body: "Block" = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class ReturnStmt(CStmt):
    value: CExpr | None = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class BreakStmt(CStmt):
    location: SourceLocation | None = None


@dataclass(eq=False)
class ContinueStmt(CStmt):
    location: SourceLocation | None = None


@dataclass(eq=False)
class Block(CStmt):
    statements: list[CStmt] = field(default_factory=list)
    location: SourceLocation | None = None
    #: False for synthetic groups (e.g. `int a, b;`) that must not open a
    #: new declaration scope
    scoped: bool = True


# -- top level -----------------------------------------------------------------


@dataclass(eq=False)
class Param:
    type: CType = None
    name: str = ""


@dataclass(eq=False)
class FunctionDef:
    return_type: CType = None
    name: str = ""
    params: list[Param] = field(default_factory=list)
    body: Block = None
    location: SourceLocation | None = None


@dataclass(eq=False)
class GlobalDecl:
    type: CType = None
    name: str = ""
    init: list | None = None  # scalar: [value]; arrays: list of values
    location: SourceLocation | None = None


@dataclass(eq=False)
class TranslationUnit:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
