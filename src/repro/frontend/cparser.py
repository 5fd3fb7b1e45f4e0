"""Recursive-descent parser for the C subset."""

from __future__ import annotations

from repro.errors import CSyntaxError
from repro.frontend import cast
from repro.frontend.clexer import CTok, CToken, tokenize_c


def parse_c(text: str, filename: str = "<c>") -> cast.TranslationUnit:
    return _Parser(tokenize_c(text, filename)).parse_unit()


_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")

#: binary operator precedence levels, loosest first (logical ops handled
#: separately for short-circuit)
_BINARY_LEVELS = [
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: binary operator -> its index in ``_BINARY_LEVELS``
_BINARY_LEVEL = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}


class _Parser:
    def __init__(self, tokens: list[CToken]):
        self.tokens = tokens
        self.pos = 0

    # -- plumbing --------------------------------------------------------------

    def peek(self, offset: int = 0) -> CToken:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> CToken:
        token = self.tokens[self.pos]
        if token.kind is not CTok.EOF:
            self.pos += 1
        return token

    def check(self, kind: CTok, value=None) -> bool:
        token = self.peek()
        return token.kind is kind and (value is None or token.value == value)

    def check_punct(self, value: str) -> bool:
        return self.check(CTok.PUNCT, value)

    def accept_punct(self, value: str) -> bool:
        if self.check_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> CToken:
        if not self.check_punct(value):
            token = self.peek()
            raise CSyntaxError(
                f"expected {value!r}, found {token.value!r}", token.location
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind is not CTok.IDENT:
            raise CSyntaxError(
                f"expected identifier, found {token.value!r}", token.location
            )
        return self.advance().value

    # -- top level -------------------------------------------------------------

    def parse_unit(self) -> cast.TranslationUnit:
        unit = cast.TranslationUnit()
        while not self.check(CTok.EOF):
            base = self._parse_base_type()
            name = self.expect_ident()
            if self.check_punct("("):
                unit.functions.append(self._parse_function(base, name))
            else:
                unit.globals.extend(self._parse_globals(base, name))
        return unit

    def _parse_base_type(self) -> str:
        token = self.peek()
        if token.kind is CTok.KEYWORD and token.value in (
            "int",
            "float",
            "double",
            "void",
        ):
            return self.advance().value
        raise CSyntaxError(f"expected a type, found {token.value!r}", token.location)

    def _parse_dims(self) -> tuple[int, ...]:
        dims = []
        while self.accept_punct("["):
            token = self.peek()
            if token.kind is not CTok.INT:
                raise CSyntaxError(
                    "array dimensions must be integer literals", token.location
                )
            dims.append(self.advance().value)
            self.expect_punct("]")
        return tuple(dims)

    def _parse_globals(self, base: str, first_name: str) -> list[cast.GlobalDecl]:
        decls = []
        name = first_name
        while True:
            dims = self._parse_dims()
            init = None
            if self.accept_punct("="):
                init = self._parse_initializer()
            decls.append(
                cast.GlobalDecl(type=cast.CType(base, dims), name=name, init=init)
            )
            if self.accept_punct(","):
                name = self.expect_ident()
                continue
            self.expect_punct(";")
            return decls

    def _parse_initializer(self) -> list:
        if self.accept_punct("{"):
            values = []
            if not self.check_punct("}"):
                values.append(self._parse_const_value())
                while self.accept_punct(","):
                    if self.check_punct("}"):
                        break
                    values.append(self._parse_const_value())
            self.expect_punct("}")
            return values
        return [self._parse_const_value()]

    def _parse_const_value(self):
        negative = self.accept_punct("-")
        token = self.peek()
        if token.kind in (CTok.INT, CTok.FLOAT):
            value = self.advance().value
            return -value if negative else value
        raise CSyntaxError(
            "initializers must be numeric literals", token.location
        )

    def _parse_function(self, base: str, name: str) -> cast.FunctionDef:
        self.expect_punct("(")
        params: list[cast.Param] = []
        if not self.check_punct(")"):
            if self.check(CTok.KEYWORD, "void") and self.peek(1).value == ")":
                self.advance()
            else:
                params.append(self._parse_param())
                while self.accept_punct(","):
                    params.append(self._parse_param())
        self.expect_punct(")")
        body = self._parse_block()
        return cast.FunctionDef(
            return_type=cast.CType(base), name=name, params=params, body=body
        )

    def _parse_param(self) -> cast.Param:
        base = self._parse_base_type()
        name = self.expect_ident()
        dims = self._parse_dims()
        return cast.Param(type=cast.CType(base, dims), name=name)

    # -- statements -------------------------------------------------------------

    def _parse_block(self) -> cast.Block:
        start = self.expect_punct("{")
        block = cast.Block(location=start.location)
        while not self.accept_punct("}"):
            block.statements.append(self._parse_statement())
        return block

    def _parse_statement(self) -> cast.CStmt:
        token = self.peek()
        if token.kind is CTok.KEYWORD:
            keyword = token.value
            if keyword in ("int", "float", "double"):
                return self._parse_decl()
            if keyword == "if":
                return self._parse_if()
            if keyword == "while":
                return self._parse_while()
            if keyword == "for":
                return self._parse_for()
            if keyword == "return":
                self.advance()
                value = None
                if not self.check_punct(";"):
                    value = self._parse_expr()
                self.expect_punct(";")
                return cast.ReturnStmt(value=value, location=token.location)
            if keyword == "break":
                self.advance()
                self.expect_punct(";")
                return cast.BreakStmt(location=token.location)
            if keyword == "continue":
                self.advance()
                self.expect_punct(";")
                return cast.ContinueStmt(location=token.location)
        if self.check_punct("{"):
            return self._parse_block()
        if self.accept_punct(";"):
            return cast.Block(location=token.location)  # empty statement
        expr = self._parse_expr()
        self.expect_punct(";")
        return cast.ExprStmt(expr=expr, location=token.location)

    def _parse_decl(self) -> cast.DeclStmt:
        token = self.peek()
        base = self._parse_base_type()
        name = self.expect_ident()
        dims = self._parse_dims()
        init = None
        if self.accept_punct("="):
            init = self._parse_expr()
        decl = cast.DeclStmt(
            type=cast.CType(base, dims), name=name, init=init, location=token.location
        )
        if self.accept_punct(","):
            # split `int a = 1, b = 2;` into a synthetic unscoped group
            block = cast.Block(location=token.location, scoped=False)
            block.statements.append(decl)
            while True:
                name = self.expect_ident()
                dims = self._parse_dims()
                init = None
                if self.accept_punct("="):
                    init = self._parse_expr()
                block.statements.append(
                    cast.DeclStmt(
                        type=cast.CType(base, dims),
                        name=name,
                        init=init,
                        location=token.location,
                    )
                )
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
            return block
        self.expect_punct(";")
        return decl

    def _parse_if(self) -> cast.IfStmt:
        token = self.advance()
        self.expect_punct("(")
        condition = self._parse_expr()
        self.expect_punct(")")
        then_body = self._statement_as_block()
        else_body = None
        if self.check(CTok.KEYWORD, "else"):
            self.advance()
            else_body = self._statement_as_block()
        return cast.IfStmt(
            condition=condition,
            then_body=then_body,
            else_body=else_body,
            location=token.location,
        )

    def _parse_while(self) -> cast.WhileStmt:
        token = self.advance()
        self.expect_punct("(")
        condition = self._parse_expr()
        self.expect_punct(")")
        body = self._statement_as_block()
        return cast.WhileStmt(condition=condition, body=body, location=token.location)

    def _parse_for(self) -> cast.ForStmt:
        token = self.advance()
        self.expect_punct("(")
        init = None
        if not self.check_punct(";"):
            if self.peek().kind is CTok.KEYWORD and self.peek().value in (
                "int",
                "float",
                "double",
            ):
                init = self._parse_decl()
                # _parse_decl consumed the ';'
            else:
                init = cast.ExprStmt(expr=self._parse_expr(), location=token.location)
                self.expect_punct(";")
        else:
            self.advance()
        condition = None
        if not self.check_punct(";"):
            condition = self._parse_expr()
        self.expect_punct(";")
        step = None
        if not self.check_punct(")"):
            step = self._parse_expr()
        self.expect_punct(")")
        body = self._statement_as_block()
        return cast.ForStmt(
            init=init, condition=condition, step=step, body=body, location=token.location
        )

    def _statement_as_block(self) -> cast.Block:
        statement = self._parse_statement()
        if isinstance(statement, cast.Block):
            return statement
        block = cast.Block(location=statement.location)
        block.statements.append(statement)
        return block

    # -- expressions -------------------------------------------------------------

    def _parse_expr(self) -> cast.CExpr:
        return self._parse_assignment()

    def _parse_assignment(self) -> cast.CExpr:
        left = self._parse_logical_or()
        token = self.peek()
        if token.kind is CTok.PUNCT and token.value in _ASSIGN_OPS:
            op = self.advance().value
            value = self._parse_assignment()
            if not isinstance(left, (cast.VarRef, cast.Index)):
                raise CSyntaxError("invalid assignment target", token.location)
            return cast.Assign(target=left, value=value, op=op, location=token.location)
        return left

    def _parse_logical_or(self) -> cast.CExpr:
        left = self._parse_logical_and()
        while self.check_punct("||"):
            token = self.advance()
            right = self._parse_logical_and()
            left = cast.Logical(op="||", left=left, right=right, location=token.location)
        return left

    def _parse_logical_and(self) -> cast.CExpr:
        left = self._parse_binary(0)
        while self.check_punct("&&"):
            token = self.advance()
            right = self._parse_binary(0)
            left = cast.Logical(op="&&", left=left, right=right, location=token.location)
        return left

    def _parse_binary(self, level: int) -> cast.CExpr:
        """Precedence climbing over ``_BINARY_LEVELS``: an operand, then
        every operator of ``level`` or tighter, left-associative, each
        right operand taking only operators tighter than its own."""
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind is not CTok.PUNCT:
                return left
            op_level = _BINARY_LEVEL.get(token.value)
            if op_level is None or op_level < level:
                return left
            op = self.advance().value
            right = self._parse_binary(op_level + 1)
            left = cast.Binary(op=op, left=left, right=right, location=token.location)

    def _parse_unary(self) -> cast.CExpr:
        token = self.peek()
        if token.kind is CTok.PUNCT and token.value in ("++", "--"):
            self.advance()
            target = self._parse_unary()
            if not isinstance(target, (cast.VarRef, cast.Index)):
                raise CSyntaxError("invalid ++/-- target", token.location)
            return cast.IncDec(
                target=target, op=token.value, prefix=True, location=token.location
            )
        if token.kind is CTok.PUNCT and token.value in ("-", "~", "!"):
            self.advance()
            operand = self._parse_unary()
            return cast.Unary(op=token.value, operand=operand, location=token.location)
        if token.kind is CTok.PUNCT and token.value == "+":
            self.advance()
            return self._parse_unary()
        if self.check_punct("(") and self.peek(1).kind is CTok.KEYWORD and self.peek(
            1
        ).value in ("int", "float", "double"):
            self.advance()
            to = self.advance().value
            self.expect_punct(")")
            operand = self._parse_unary()
            return cast.Cast(to=to, operand=operand, location=token.location)
        return self._parse_postfix()

    def _parse_postfix(self) -> cast.CExpr:
        token = self.peek()
        if token.kind is CTok.INT:
            self.advance()
            return cast.IntLit(token.value, location=token.location)
        if token.kind is CTok.FLOAT:
            self.advance()
            return cast.FloatLit(token.value, location=token.location)
        if self.accept_punct("("):
            expr = self._parse_expr()
            self.expect_punct(")")
            return expr
        if token.kind is CTok.IDENT:
            name = self.advance().value
            if self.accept_punct("("):
                args = []
                if not self.check_punct(")"):
                    args.append(self._parse_expr())
                    while self.accept_punct(","):
                        args.append(self._parse_expr())
                self.expect_punct(")")
                return cast.Call(name=name, args=args, location=token.location)
            ref = cast.VarRef(name, location=token.location)
            result: cast.CExpr = ref
            if self.check_punct("["):
                indices = []
                while self.accept_punct("["):
                    indices.append(self._parse_expr())
                    self.expect_punct("]")
                result = cast.Index(
                    base=ref, indices=indices, location=token.location
                )
            if self.check_punct("++") or self.check_punct("--"):
                op = self.advance().value
                return cast.IncDec(
                    target=result, op=op, prefix=False, location=token.location
                )
            return result
        raise CSyntaxError(
            f"expected an expression, found {token.value!r}", token.location
        )
