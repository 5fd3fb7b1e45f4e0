"""Unit tests for the C-subset front end: lexer, parser, checker."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CSemanticError, CSyntaxError
from repro.frontend import cast
from repro.frontend.clexer import CTok, tokenize_c
from repro.frontend.cparser import _BINARY_LEVELS, _Parser, parse_c
from repro.frontend.csema import check_unit


# -- lexer ------------------------------------------------------------------


def test_lexer_keywords_vs_identifiers():
    tokens = tokenize_c("int foo intx")
    assert tokens[0].kind is CTok.KEYWORD
    assert tokens[1].kind is CTok.IDENT
    assert tokens[2].kind is CTok.IDENT


def test_lexer_numbers():
    tokens = tokenize_c("42 3.5 1e3 2.5e-2 0x10")
    assert [t.value for t in tokens[:-1]] == [42, 3.5, 1000.0, 0.025, 16]
    assert tokens[2].kind is CTok.FLOAT


def test_lexer_multichar_punctuators():
    tokens = tokenize_c("<= >= == != && || << >> ++ --")
    assert [t.value for t in tokens[:-1]] == [
        "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "++", "--",
    ]


def test_lexer_comments():
    tokens = tokenize_c("a /* hidden */ b // also\nc")
    assert [t.value for t in tokens[:-1]] == ["a", "b", "c"]


def test_lexer_unterminated_comment():
    with pytest.raises(CSyntaxError, match="unterminated"):
        tokenize_c("/* never ends")


def test_lexer_bad_character():
    with pytest.raises(CSyntaxError, match="unexpected"):
        tokenize_c("a @ b")


def test_lexer_rejects_numerics_that_are_neither_letters_nor_digits():
    # '²' passes str.isdigit() and '½' str.isnumeric(), but int() takes
    # neither and neither is a letter, so neither starts a token
    for char in "²½":
        message = re.escape(f"<c>:1:8: unexpected character {char!r}")
        with pytest.raises(CSyntaxError, match=message):
            tokenize_c(f"return {char};")


def test_lexer_unicode_letters_and_decimal_digits():
    tokens = tokenize_c("é1 \u0661")  # ARABIC-INDIC DIGIT ONE
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        (CTok.IDENT, "é1"),
        (CTok.INT, 1),
    ]


_C_PIECES = list("abexXE_019.+-*/%=<>!~&|^()[]{};,?:") + [
    " ", "\t", "\n", "//", "/*", "*/", "0x", "1e", "int", "é",
    "/* 1\n\t*/", "// a\n",
]


@given(st.lists(st.sampled_from(_C_PIECES), max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_lexer_locations_point_at_each_token(text):
    try:
        tokens = tokenize_c(text)
    except CSyntaxError:
        return
    lines = text.split("\n")
    starts = [0]
    for line in lines[:-1]:
        starts.append(starts[-1] + len(line) + 1)
    previous_end = 0
    for token in tokens[:-1]:
        line, column = token.location.line, token.location.column
        offset = starts[line - 1] + column - 1
        assert column <= len(lines[line - 1]), token
        assert offset >= previous_end, token  # in order, never overlapping
        if token.kind in (CTok.INT, CTok.FLOAT):
            # the literal re-lexes to itself from its own first character
            assert text[offset] in "0123456789.", token
            again = tokenize_c(text[offset:])[0]
            assert (again.kind, again.value) == (token.kind, token.value)
            previous_end = offset + 1
        else:
            assert text.startswith(token.value, offset), token
            previous_end = offset + len(token.value)
    eof = tokens[-1].location
    assert (eof.line, eof.column) == (len(lines), len(lines[-1]) + 1)


# -- parser ------------------------------------------------------------------


def test_parse_function_and_global():
    unit = parse_c("double g[10];\nint f(int x) { return x; }")
    assert unit.globals[0].name == "g"
    assert unit.globals[0].type.dims == (10,)
    assert unit.functions[0].name == "f"


def test_parse_global_initializers():
    unit = parse_c("int a = 3; double b[3] = {1.0, -2.5, 3.0};")
    assert unit.globals[0].init == [3]
    assert unit.globals[1].init == [1.0, -2.5, 3.0]


def test_parse_multi_declarator_is_unscoped_group():
    unit = parse_c("void f(void) { int a, b = 2; }")
    group = unit.functions[0].body.statements[0]
    assert isinstance(group, cast.Block)
    assert not group.scoped
    assert len(group.statements) == 2


def test_parse_for_with_declaration():
    unit = parse_c("void f(void) { for (int i = 0; i < 4; i++) { } }")
    loop = unit.functions[0].body.statements[0]
    assert isinstance(loop, cast.ForStmt)
    assert isinstance(loop.init, cast.DeclStmt)
    assert isinstance(loop.step, cast.IncDec)


def test_parse_operator_precedence():
    unit = parse_c("int f(void) { return 1 + 2 * 3 < 4 & 5; }")
    expr = unit.functions[0].body.statements[0].value
    assert expr.op == "&"
    assert expr.left.op == "<"
    assert expr.left.left.op == "+"


def test_parse_cast_expression():
    unit = parse_c("double f(int x) { return (double)x; }")
    expr = unit.functions[0].body.statements[0].value
    assert isinstance(expr, cast.Cast)
    assert expr.to == "double"


def test_parse_two_dimensional_index():
    unit = parse_c("double a[3][4]; double f(void) { return a[1][2]; }")
    expr = unit.functions[0].body.statements[0].value
    assert isinstance(expr, cast.Index)
    assert len(expr.indices) == 2


def test_parse_compound_assignment():
    unit = parse_c("void f(void) { int x = 0; x += 3; }")
    stmt = unit.functions[0].body.statements[1]
    assert stmt.expr.op == "+="


def test_parse_logical_operators():
    unit = parse_c("int f(int a, int b) { if (a && b || !a) { return 1; } return 0; }")
    cond = unit.functions[0].body.statements[0].condition
    assert isinstance(cond, cast.Logical)
    assert cond.op == "||"


def test_parse_error_reports_location():
    with pytest.raises(CSyntaxError) as excinfo:
        parse_c("int f(void) { return 1 + ; }")
    assert excinfo.value.location is not None


def test_parse_invalid_assignment_target():
    with pytest.raises(CSyntaxError, match="assignment target"):
        parse_c("void f(void) { 1 = 2; }")


# -- precedence climbing against the per-level recursion ---------------------


def _per_level_parse_binary(self, level):
    """The reference: one call per level of ``_BINARY_LEVELS``, loosest
    first, for every operand."""
    if level >= len(_BINARY_LEVELS):
        return self._parse_unary()
    left = self._parse_binary(level + 1)
    while True:
        token = self.peek()
        if token.kind is CTok.PUNCT and token.value in _BINARY_LEVELS[level]:
            op = self.advance().value
            right = self._parse_binary(level + 1)
            left = cast.Binary(
                op=op, left=left, right=right, location=token.location
            )
        else:
            return left


def _both_parses(source):
    """The AST (its ``repr``, locations included) or the error, from
    precedence climbing and from the per-level recursion."""

    def outcome():
        try:
            return repr(parse_c(source))
        except CSyntaxError as error:
            return f"error: {error}"

    climbed = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Parser, "_parse_binary", _per_level_parse_binary)
        recursed = outcome()
    return climbed, recursed


def test_precedence_climbing_matches_the_per_level_parse_on_paper_sources():
    from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE

    sources = [p.source for p in PROGRAM_SUITE]
    sources += [k.source for k in LIVERMORE_KERNELS]
    for source in sources:
        climbed, recursed = _both_parses(source)
        assert not climbed.startswith("error")
        assert climbed == recursed


_BINARY_OPS = [op for level in _BINARY_LEVELS for op in level] + ["&&", "||"]
_PREFIXES = ["-", "+", "~", "!", "(int)", "(float)", "(double)"]

#: expressions over every binary operator, prefix and cast, with and
#: without parentheses; tokens are spaced so ``- -`` never lexes as ``--``
_EXPRESSIONS = st.recursive(
    st.sampled_from(["a", "b", "c[i]", "c[i][2]", "7", "2.5", "g(a, b)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_BINARY_OPS), inner).map(" ".join),
        st.tuples(st.sampled_from(_PREFIXES), inner).map(" ".join),
        inner.map(lambda expr: f"( {expr} )"),
    ),
    max_leaves=16,
)


@given(_EXPRESSIONS)
@settings(max_examples=300, deadline=None)
def test_precedence_climbing_matches_the_per_level_parse(expr):
    climbed, recursed = _both_parses(f"int f(void) {{ return {expr}; }}")
    assert not climbed.startswith("error")
    assert climbed == recursed


# -- checker --------------------------------------------------------------


def check(source):
    return check_unit(parse_c(source))


def test_check_types_annotated():
    checked = check("double f(int x) { return x + 1.5; }")
    ret = checked.unit.functions[0].body.statements[0]
    assert ret.value.ctype == "double"


def test_check_inserts_conversion_for_mixed_arithmetic():
    checked = check("double f(int x, double y) { return x + y; }")
    value = checked.unit.functions[0].body.statements[0].value
    assert isinstance(value.left, cast.Cast)
    assert value.left.to == "double"


def test_check_int_literal_folds_to_float():
    checked = check("double f(void) { return 1 + 0.5; }")
    value = checked.unit.functions[0].body.statements[0].value
    assert isinstance(value.left, cast.FloatLit)


def test_check_undeclared_identifier():
    with pytest.raises(CSemanticError, match="undeclared"):
        check("int f(void) { return nope; }")


def test_check_duplicate_local():
    with pytest.raises(CSemanticError, match="duplicate"):
        check("void f(void) { int a; int a; }")


def test_check_shadowing_renames_inner():
    checked = check("int f(void) { int a = 1; { int a = 2; } return a; }")
    names = set(checked.locals["f"])
    assert "a" in names and "a.2" in names


def test_check_array_arity():
    with pytest.raises(CSemanticError, match="indices"):
        check("double a[3][4]; double f(void) { return a[1]; }")


def test_check_array_used_without_index():
    with pytest.raises(CSemanticError, match="without an index"):
        check("double a[3]; double f(void) { return a; }")


def test_check_non_int_index():
    with pytest.raises(CSemanticError, match="must be int"):
        check("double a[3]; double f(double x) { return a[x]; }")


def test_check_int_only_operators():
    with pytest.raises(CSemanticError, match="int operands"):
        check("double f(double x) { return x % 2.0; }")


def test_check_call_arity():
    with pytest.raises(CSemanticError, match="arguments"):
        check("int g(int a) { return a; } int f(void) { return g(1, 2); }")


def test_check_call_argument_conversion():
    checked = check(
        "double g(double a) { return a; } double f(void) { return g(1); }"
    )
    call = checked.unit.functions[1].body.statements[0].value
    assert isinstance(call.args[0], cast.FloatLit)


def test_check_void_return_with_value():
    with pytest.raises(CSemanticError, match="void function"):
        check("void f(void) { return 1; }")


def test_check_missing_return_value():
    with pytest.raises(CSemanticError, match="without a value"):
        check("int f(void) { return; }")


def test_check_break_outside_loop():
    with pytest.raises(CSemanticError, match="break outside"):
        check("void f(void) { break; }")


def test_check_array_parameters_rejected():
    with pytest.raises(CSemanticError, match="array parameters"):
        check("void f(int a[3]) { }")


def test_check_unknown_function():
    with pytest.raises(CSemanticError, match="undeclared function"):
        check("int f(void) { return g(); }")
