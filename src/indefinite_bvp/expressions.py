"""Small arithmetic expression language used in config files.

Grammar (``^`` is right-associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are the free variable (``t`` for weights, ``s`` for
nonlinearities, ``r`` for radial weights), the constants ``pi`` and ``e``,
or one of the supported functions.

The parsed tree is compiled once into a Python function of the free
variable, so an evaluation is one call with no per-node dispatch.
"""

from __future__ import annotations

import ast
import re

import numpy as np

from .errors import ConfigurationError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _maximum(a, b):
    """np.maximum, by a branch on two floats: nan from either side, and
    the second operand on ties, so _maximum(0.0, -0.0) is -0.0 as in
    numpy.  Arrays and other types take the ufunc."""
    if isinstance(a, float) and isinstance(b, float):
        return a if a > b or a != a else b
    return np.maximum(a, b)


def _minimum(a, b):
    """np.minimum, by a branch on two floats; see :func:`_maximum`."""
    if isinstance(a, float) and isinstance(b, float):
        return a if a < b or a != a else b
    return np.minimum(a, b)


_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "abs": (1, np.abs),
    "atan": (1, np.arctan),
    "arctan": (1, np.arctan),
    "sqrt": (1, lambda x: np.sqrt(np.maximum(x, 0.0))),
    "max": (2, _maximum),
    "min": (2, _minimum),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
# np.divide keeps evaluation total on scalars (1/0 -> inf).  np.power, not
# ``**``: on scalars ``**`` calls the C library's pow, which can differ in
# the last bit from numpy's vectorised loop, and a scalar evaluation must
# match the same point of an array evaluation.
_CALLS = {"/": "_divide", "^": "_power"}


def _constant(x, value):
    """A variable-free expression takes the shape of its argument."""
    return value if np.isscalar(x) else np.full(np.shape(x), value,
                                                dtype=float)


_NAMESPACE = {"__builtins__": {}, "_divide": np.divide,
              "_power": np.power, "_constant": _constant}
_NAMESPACE.update(("_f_" + name, fn) for name, (_, fn) in _FUNCTIONS.items())


def _name(ident):
    return ast.Name(id=ident, ctx=ast.Load())


def _lower(node):
    """Python ``ast`` of one parsed node: the generated code holds only
    node tags, float constants and the names of ``_NAMESPACE``, never
    text from the expression source."""
    tag = node[0]
    if tag == "const":
        return ast.Constant(value=node[1])
    if tag == "var":
        return _name("x")
    if tag == "neg":
        return ast.UnaryOp(op=ast.USub(), operand=_lower(node[1]))
    if tag == "call":
        return ast.Call(func=_name("_f_" + node[1]),
                        args=[_lower(a) for a in node[2]], keywords=[])
    left, right = _lower(node[1]), _lower(node[2])
    if tag in _BINOPS:
        return ast.BinOp(left=left, op=_BINOPS[tag](), right=right)
    return ast.Call(func=_name(_CALLS[tag]), args=[left, right], keywords=[])


def _compile(tree, constant):
    """The parsed ``tree`` as a function of one argument ``x``."""
    body = _lower(tree)
    if constant:
        body = ast.Call(func=_name("_constant"), args=[_name("x"), body],
                        keywords=[])
    args = ast.arguments(posonlyargs=[], args=[ast.arg(arg="x")],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    lam = ast.fix_missing_locations(
        ast.Expression(body=ast.Lambda(args=args, body=body)))
    return eval(compile(lam, "<expression>", "eval"), dict(_NAMESPACE))


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            if src[pos:].strip() == "":
                break
            raise ConfigurationError(
                "lexical error at position %d: %r" % (pos, src[pos:])
            )
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start()))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class Expression:
    """Parsed arithmetic expression in one free variable."""

    def __init__(self, src):
        self.source = src
        self._tokens = _tokenize(src)
        self._pos = 0
        self._variables = set()
        tree = self._parse_expr()
        if self._peek()[0] != "end":
            kind, value, start = self._peek()
            raise ConfigurationError(
                "syntax error at position %d: unexpected %r" % (start, value)
            )
        if len(self._variables) > 1:
            raise ConfigurationError(
                "expression uses more than one variable: %s"
                % sorted(self._variables)
            )
        self.variable = next(iter(self._variables)) if self._variables else None
        self._fn = _compile(tree, constant=self.variable is None)

    # -- parsing ---------------------------------------------------------

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, op):
        kind, value, start = self._next()
        if kind != "op" or value != op:
            raise ConfigurationError(
                "syntax error at position %d: expected %r, got %r"
                % (start, op, value)
            )

    def _parse_expr(self):
        node = self._parse_term()
        while self._peek()[:2] in (("op", "+"), ("op", "-")):
            op = self._next()[1]
            node = (op, node, self._parse_term())
        return node

    def _parse_term(self):
        node = self._parse_factor()
        while self._peek()[:2] in (("op", "*"), ("op", "/")):
            op = self._next()[1]
            node = (op, node, self._parse_factor())
        return node

    def _parse_factor(self):
        base = self._parse_unary()
        if self._peek()[:2] == ("op", "^"):
            self._next()
            return ("^", base, self._parse_factor())
        return base

    def _parse_unary(self):
        if self._peek()[:2] == ("op", "-"):
            self._next()
            return ("neg", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        kind, value, start = self._next()
        if kind == "num":
            return ("const", value)
        if kind == "op" and value == "(":
            node = self._parse_expr()
            self._expect_op(")")
            return node
        if kind == "ident":
            if self._peek()[:2] == ("op", "("):
                if value not in _FUNCTIONS:
                    raise ConfigurationError(
                        "unknown function %r at position %d" % (value, start)
                    )
                self._next()
                args = [self._parse_expr()]
                while self._peek()[:2] == ("op", ","):
                    self._next()
                    args.append(self._parse_expr())
                self._expect_op(")")
                arity = _FUNCTIONS[value][0]
                if len(args) != arity:
                    raise ConfigurationError(
                        "function %r takes %d argument(s), got %d"
                        % (value, arity, len(args))
                    )
                return ("call", value, args)
            if value in _CONSTANTS:
                return ("const", _CONSTANTS[value])
            if value in ("t", "s", "r"):
                self._variables.add(value)
                return ("var", value)
            raise ConfigurationError(
                "unknown identifier %r at position %d" % (value, start)
            )
        raise ConfigurationError(
            "syntax error at position %d: unexpected %r" % (start, value)
        )

    # -- evaluation ------------------------------------------------------

    def __call__(self, x):
        with quiet_fp():
            return self._fn(x)

    def __reduce__(self):
        # the compiled function does not pickle; the source rebuilds it
        return (Expression, (self.source,))

    def __repr__(self):
        return "Expression(%r)" % self.source


def quiet_fp():
    """Context in which expressions evaluate: division by zero, invalid
    operations and overflow give inf/nan without a warning."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def unguarded(fn):
    """The compiled function of an :class:`Expression` without the
    :func:`quiet_fp` guard of ``__call__``; any other callable as is.
    For per-RHS callables whose integration loop runs inside one
    :func:`quiet_fp`."""
    return fn._fn if isinstance(fn, Expression) else fn


def parse_expression(src):
    """Parse ``src`` into an :class:`Expression`."""
    return Expression(src)
