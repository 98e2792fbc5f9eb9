"""Expression parsing and function specifications.

A small arithmetic language over real variables: binary + - * / ^,
unary minus, the functions exp, log, sin, cos, abs, sqrt, and the
constants pi and e.  Precedence from tightest to loosest: ^ (right
associative), unary minus, * /, + -.  Rational constants are written as
integer quotients (e.g. 1/3).

``FuncSpec`` wraps the tree of a univariate seed g or of a bivariate F
and evaluates at floats or numpy arrays.  ``cocycle_from_seed`` builds the
tree of F(x, y) = g(x+y) - (g(x) + g(y)) from a seed's.
Each ``FuncSpec`` compiles its AST once, at construction, to Python
source for a scalar, an array and an interval callable; the parser admits
only whitelisted names, so that source holds only arithmetic and our
helpers.  The interval callable behind ``FuncSpec.enclose`` bounds the
function over a box with outward-rounded interval arithmetic.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Union

import numpy as np

__all__ = [
    "ParseError",
    "EvaluationError",
    "parse_expr",
    "FuncSpec",
    "BUILTIN_SEEDS",
    "bivariate_expression",
    "seed_expression",
    "builtin_seed",
    "cocycle_from_seed",
]


class ParseError(Exception):
    """Syntax or name error, with the 0-based offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvaluationError(Exception):
    """Domain violation or non-finite result during evaluation.

    A scalar call's error names its point, and the lattice solver's names
    the lattice point; either is attached as ``point``.
    """

    def __init__(self, message: str, point: tuple | None = None):
        super().__init__(message)
        self.point = point


# --- AST -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Const, Var, Unary, Bin, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCS = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
          "abs": abs, "sqrt": math.sqrt}


# --- tokenizer and parser --------------------------------------------

# numbers (ASCII digits), names, operators, and any other non-space
# character, which is an error.  [^\W\d] also takes digits that are not
# decimal, such as "²", so a name must still start with a letter or "_".
_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|([^\W\d]\w*)|([-+*/^(),])|(\S)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    # (kind, text, position); kinds: num, name, op
    tokens = []
    for m in _TOKEN.finditer(src):
        text, at = m.group(), m.start()
        if m.lastindex == 4 or (m.lastindex == 2 and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", at)
        tokens.append((("num", "name", "op")[m.lastindex - 1], text, at))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = set(variables)

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.src))
        self.pos += 1
        return tok

    def _accept_op(self, *ops: str) -> str | None:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.pos += 1
            return tok[1]
        return None

    def _close(self) -> None:
        tok = self._peek()
        if not self._accept_op(")"):
            raise ParseError("expected ')'", tok[2] if tok else len(self.src))

    def parse(self) -> Expr:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def _expr(self, level: int = 0) -> Expr:
        # one left-associative loop per level: + - between level-1
        # chains, * / between factors
        ops = ("+-", "*/")[level]
        node = self._factor() if level else self._expr(1)
        while op := self._accept_op(*ops):
            node = Bin(op, node, self._factor() if level else self._expr(1))
        return node

    def _factor(self) -> Expr:
        if self._accept_op("-"):
            return Unary(self._factor())
        return self._power()

    def _power(self) -> Expr:
        node = self._atom()
        if self._accept_op("^"):
            return Bin("^", node, self._factor())  # right associative
        return node

    def _atom(self) -> Expr:
        tok = self._next()
        kind, text, at = tok
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if self._accept_op("("):
                if text not in _FUNCS:
                    raise ParseError(f"unknown function {text!r}", at)
                args = [self._expr()]
                while self._accept_op(","):
                    args.append(self._expr())
                self._close()
                if len(args) != 1:
                    raise ParseError(
                        f"{text} expects 1 argument, got {len(args)}", at
                    )
                return Call(text, args[0])
            if text in _CONSTANTS:
                return Const(text)
            if text in self.variables:
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", at)
        if text == "(":
            node = self._expr()
            self._close()
            return node
        raise ParseError(f"unexpected {text!r}", at)


def parse_expr(src: str, variables: tuple[str, ...] | list[str] = ("x", "y")) -> Expr:
    """Parse source text over the given variable names into an AST.
    Nesting too deep for the recursive descent is a ParseError at the
    token where the descent stopped."""
    parser = _Parser(src, tuple(variables))
    try:
        return parser.parse()
    except RecursionError:
        tok = parser._peek()
        raise ParseError("expression nested too deeply", tok[2] if tok else len(src)) from None


# --- compilation --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _per_value(scalar, array=None):
    # scalar at floats; else (an ndarray, or a numpy scalar that one left)
    # array, or scalar at each element of the broadcast, as a scalar call
    def call(*args):
        if all(type(a) is float for a in args):
            return scalar(*args)
        if array is not None:
            return array(*args)
        shape = np.broadcast(*args).shape
        cols = [np.broadcast_to(a, shape).ravel().tolist() if isinstance(a, np.ndarray)
                else repeat(a) for a in args]
        return np.fromiter(map(scalar, *cols), np.float64, math.prod(shape)).reshape(shape)

    return call


def _sqrt_array(a):
    if (a < 0.0).any():
        raise ValueError("math domain error")
    return np.sqrt(a)


def _div_array(a, b):
    if np.any(b == 0.0):
        raise ZeroDivisionError("float division by zero")
    return a / b


# --- intervals ----------------------------------------------------------
# Outward-rounded interval arithmetic over (lo, hi) float pairs (R. E.
# Moore, Interval Analysis, 1966; S. M. Rump, Acta Numerica 19, 2010).
# Each endpoint computed in floats moves one ulp outward, and a libm
# result two, since math.exp and the others are not correctly rounded.
# Rounding is monotone, so an enclosure holds both the real value and the
# value the scalar callable computes at every point of the box.  Where an
# operation leaves its domain on part of the box (a divisor interval that
# holds 0; log, sqrt or ^ of a base that may be negative) or meets
# inf - inf or 0 * inf, the enclosure is the whole line.

_ENTIRE = (-math.inf, math.inf)


def _outward(lo: float, hi: float) -> tuple[float, float]:
    if lo != lo or hi != hi:  # NaN from inf - inf, 0 * inf or inf / inf
        return _ENTIRE
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _libm(lo: float, hi: float) -> tuple[float, float]:
    return _outward(*_outward(lo, hi))


def _i_add(a, b):
    return _outward(a[0] + b[0], a[1] + b[1])


def _i_sub(a, b):
    return _outward(a[0] - b[1], a[1] - b[0])


def _i_neg(a):
    return -a[1], -a[0]


def _hull(p: tuple) -> tuple[float, float]:
    if any(map(math.isnan, p)):
        return _ENTIRE
    return _outward(min(p), max(p))


def _i_mul(a, b):
    return _hull((a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]))


def _i_div(a, b):
    if b[0] <= 0.0 <= b[1]:
        return _ENTIRE
    return _hull((a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]))


def _i_pow(a, b):
    # math.pow is monotone in each argument on the boxes admitted here
    # (an integer exponent on a base of one sign, or a base >= 0), so its
    # extremes lie at the corners, and at 0 for an even power of a base
    # that holds 0
    (al, ah), (bl, bh) = a, b
    integral = bl == bh and bl.is_integer()
    if integral:
        if bl < 0 and al <= 0.0 <= ah:
            return _ENTIRE
        corners = ((al, bl), (ah, bl))
    elif al < 0.0 or (al == 0.0 and bl < 0.0):
        return _ENTIRE
    else:
        corners = ((al, bl), (al, bh), (ah, bl), (ah, bh))
    try:
        vals = [math.pow(x, y) for x, y in corners]
    except (OverflowError, ValueError):
        return _ENTIRE
    lo, hi = _libm(min(vals), max(vals))
    if integral and bl % 2 == 0:  # an even power is >= 0
        lo = 0.0 if al < 0.0 < ah else max(lo, 0.0)
    return lo, hi


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _i_exp(a):
    return _libm(_exp(a[0]), _exp(a[1]))


def _i_log(a):
    if a[0] <= 0.0:
        return _ENTIRE
    return _libm(math.log(a[0]), math.log(a[1]))


def _i_sqrt(a):
    if a[0] < 0.0:
        return _ENTIRE
    lo, hi = _libm(math.sqrt(a[0]), math.sqrt(a[1]))
    return max(lo, 0.0), hi


def _i_abs(a):
    lo, hi = a
    if lo >= 0.0:
        return a
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _may_hit(lo: float, hi: float, phase: float) -> bool:
    """Whether (phase + 2k) * pi may lie in [lo, hi] for an integer k.  The
    slack covers the rounding of lo / pi, so a miss is certain."""
    slack = 1e-15 * (abs(lo) + abs(hi) + 4.0)
    return math.ceil((lo / math.pi - phase) / 2 - slack) <= math.floor((hi / math.pi - phase) / 2 + slack)


def _trig(a, fn, peak: float):
    # fn has its maxima at (peak + 2k) * pi and its minima at (peak + 1 + 2k) * pi
    lo, hi = a
    if not hi - lo < 6.0:  # a full period, or unbounded
        return -1.0, 1.0
    ends = (fn(lo), fn(hi))
    lo_v, hi_v = _libm(min(ends), max(ends))
    return (
        -1.0 if _may_hit(lo, hi, peak + 1.0) else max(lo_v, -1.0),
        1.0 if _may_hit(lo, hi, peak) else min(hi_v, 1.0),
    )


def _i_sin(a):
    return _trig(a, math.sin, 0.5)


def _i_cos(a):
    return _trig(a, math.cos, 0.0)


_INTERVAL = {
    "add": _i_add, "sub": _i_sub, "mul": _i_mul, "div": _i_div, "pow": _i_pow, "neg": _i_neg,
    "exp": _i_exp, "log": _i_log, "sin": _i_sin, "cos": _i_cos, "abs": _i_abs, "sqrt": _i_sqrt,
}

# The only globals of compiled code: _s_<f> are the scalar functions; _a_<f>
# the same at floats and, at ndarrays, numpy's abs, sqrt and division (IEEE
# 754 fixes their results; they raise as Python's do) or libm's function at
# each element, so an array call equals its scalar calls bit for bit (numpy's
# exp, log, sin, cos and pow need not); _i_<f> are the interval functions.
_SCALAR = {**_FUNCS, "pow": math.pow, "div": operator.truediv}
_EXACT = {"abs": np.abs, "sqrt": _sqrt_array, "div": _div_array}
_GLOBALS = {
    "_errstate": np.errstate, "_isfinite": math.isfinite,
    **{f"_s_{name}": fn for name, fn in _SCALAR.items()},
    **{f"_a_{name}": _per_value(fn, _EXACT.get(name)) for name, fn in _SCALAR.items()},
    **{f"_i_{name}": fn for name, fn in _INTERVAL.items()},
}
_NON_FINITE = 'raise ArithmeticError("non-finite result")'
_OP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}
_OP_CALLS = {"_s_": "^", "_a_": "/^", "_i_": "+-*/^"}  # the operators each form calls


def _literal(value) -> str:
    value = float(value)
    return f"({value!r})" if math.isfinite(value) else f"float({repr(value)!r})"


def _lower(node: Expr, names: dict, prefix: str) -> tuple[str, int]:
    """Python source for ``node``, calling the ``prefix`` functions, and
    its precedence.  Python groups + - * / and unary minus as our grammar
    does, so parentheses go only where precedence needs them, and a long
    sum stays flat; '^' becomes a call, and '/' too in the array form.  In
    the interval form every operation is a call and a constant c is (c, c)."""
    atom = _PREC["atom"]
    interval = prefix == "_i_"
    if isinstance(node, (Num, Const)):
        lit = _literal(node.value if isinstance(node, Num) else _CONSTANTS[node.name])
        return (f"({lit}, {lit})" if interval else lit), atom
    if isinstance(node, Var):
        return names[node.name], atom
    if isinstance(node, Unary):
        src, p = _lower(node.operand, names, prefix)
        if interval:
            return f"_i_neg({src})", atom
        return (f"-{src}" if p >= _PREC["neg"] else f"-({src})"), _PREC["neg"]
    if isinstance(node, Call) and node.func in _FUNCS:
        return f"{prefix}{node.func}({_lower(node.arg, names, prefix)[0]})", atom
    if isinstance(node, Bin) and node.op in _OP_NAMES:
        (a, pa), (b, pb) = (_lower(n, names, prefix) for n in (node.left, node.right))
        if node.op in _OP_CALLS[prefix]:
            return f"{prefix}{_OP_NAMES[node.op]}({a}, {b})", atom
        p = _PREC[node.op]
        a = a if pa >= p else f"({a})"
        b = b if pb > p else f"({b})"  # left associative
        return f"{a} {node.op} {b}", p
    raise TypeError(f"not an expression node: {node!r}")


def _compile(node: Expr, variables: tuple[str, ...]):
    """Scalar, array and interval callables for ``node`` over ``variables``.
    The interval form is built first: it nests one parenthesis per
    operation, at least as deep as the other two, so a tree deeper than
    CPython compiles (200 parentheses) is refused there, and its
    SyntaxError or RecursionError becomes ValueError."""
    params = [f"v{i}" for i in range(len(variables))]
    names = dict(zip(variables, params))
    compiled = {}
    try:
        for prefix in ("_i_", "_s_", "_a_"):
            expr = _lower(node, names, prefix)[0]
            body = f"return {expr}"
            if prefix == "_a_":  # numpy's + - * then give inf and NaN silently, as Python's do
                body = f'with _errstate(all="ignore"): {body}'
            elif prefix == "_s_":  # a finite float, or a Python error
                body = f"out = {expr}\n    if _isfinite(out): return out\n    {_NON_FINITE}"
            scope: dict = {}
            exec(f"def fn({', '.join(params)}):\n    {body}", _GLOBALS, scope)
            compiled[prefix] = scope["fn"]
    except (SyntaxError, RecursionError):
        raise ValueError("expression nested too deeply for Python to compile") from None
    return compiled["_s_"], compiled["_a_"], compiled["_i_"]


# --- function specifications ------------------------------------------

BUILTIN_SEEDS = {
    "square": "t^2",
    "cube": "t^3",
    "expo": "exp(t)",
    "sine": "sin(t)",
    "hoelder": "sqrt(abs(t))",
}


@dataclass(frozen=True)
class FuncSpec:
    """The function of ``variables`` that the tree ``ast`` computes, a
    univariate seed g or a bivariate F, evaluable at reals or arrays."""

    ast: Expr
    variables: tuple[str, ...]
    arity: int = field(init=False, repr=False, compare=False)
    _compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variable names must be distinct, got {', '.join(self.variables)}")
        object.__setattr__(self, "arity", len(self.variables))
        object.__setattr__(self, "_compiled", _compile(self.ast, self.variables))

    def __reduce__(self):  # compiled code does not pickle; rebuild it
        return FuncSpec, (self.ast, self.variables)

    def __call__(self, *args):
        return self.evaluate(*args)

    def evaluate(self, *args):
        """F or g at floats or numpy arrays.  An array call gives its scalar
        calls' values bit for bit, in the arguments' broadcast shape.  Python
        errors and non-finite results become EvaluationError here, a scalar
        call's with its ``point``, which the message names."""
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        scalar, array, _ = self._compiled
        fn = scalar
        for a in args:
            if type(a) is not float:  # convert, or take the array variant
                if any(isinstance(b, np.ndarray) for b in args):
                    fn = array
                args = [np.asarray(b, float) if isinstance(b, np.ndarray) else float(b) for b in args]
                break
        try:
            out = fn(*args)
            if fn is array and not np.all(np.isfinite(out)):
                raise ArithmeticError("non-finite result")
        except (ArithmeticError, ValueError) as exc:
            if fn is array:
                raise EvaluationError(str(exc)) from exc
            where = ", ".join(f"{v}={a!r}" for v, a in zip(self.variables, args))
            raise EvaluationError(f"{exc} at {where}", point=tuple(args)) from exc
        if fn is scalar:
            return out
        shape = np.broadcast(*args).shape
        return out if type(out) is np.ndarray and out.shape == shape else np.full(shape, out)

    def enclose(self, *box: tuple[float, float]) -> tuple[float, float]:
        """An interval (lo, hi) that holds F or g at every point of ``box``,
        one (lo, hi) float pair per variable, in real arithmetic and as the
        scalar call computes it.  It is (-inf, inf) where an operation may
        leave its domain in the box; it never raises."""
        if len(box) != self.arity:
            raise TypeError(f"expected {self.arity} intervals, got {len(box)}")
        return self._compiled[2](*((float(lo), float(hi)) for lo, hi in box))


def bivariate_expression(src: str, variables: tuple[str, str] = ("x", "y")) -> FuncSpec:
    """F(x, y) from source text over two variables."""
    return FuncSpec(parse_expr(src, variables), tuple(variables))


def seed_expression(src: str, variable: str = "t") -> FuncSpec:
    """Univariate seed g from source text."""
    return FuncSpec(parse_expr(src, (variable,)), (variable,))


def builtin_seed(name: str) -> FuncSpec:
    """One of the named seed families: square, cube, expo, sine, hoelder."""
    try:
        src = BUILTIN_SEEDS[name]
    except KeyError:
        raise ValueError(f"unknown builtin seed {name!r}") from None
    return seed_expression(src)


def _substitute(node: Expr, name: str, value: Expr) -> Expr:
    """``node`` with ``value`` in place of the variable ``name``."""
    if isinstance(node, Var):
        return value if node.name == name else node
    if isinstance(node, Unary):
        return Unary(_substitute(node.operand, name, value))
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, name, value))
    if isinstance(node, Bin):
        left, right = (_substitute(n, name, value) for n in (node.left, node.right))
        return Bin(node.op, left, right)
    return node


def cocycle_from_seed(g: FuncSpec) -> FuncSpec:
    """Bivariate F(x, y) = g(x+y) - (g(x) + g(y)) induced by a seed g: the
    seed's tree with x + y, x and y in place of its variable.  That
    grouping keeps F(x, y) == F(y, x) bit for bit."""
    if g.arity != 1:
        raise ValueError("seed must be univariate")
    x, y = Var("x"), Var("y")
    gs, gx, gy = (_substitute(g.ast, g.variables[0], v) for v in (Bin("+", x, y), x, y))
    return FuncSpec(Bin("-", gs, Bin("+", gx, gy)), ("x", "y"))


# --- sampling -------------------------------------------------------------

def _scalar(fn):
    """fn at float points (x, y): a FuncSpec's compiled scalar form, and its
    call, whose EvaluationError names the point, only where that form raises.
    Any other fn, a subclass too (it may override ``evaluate``), is itself."""
    if type(fn) is not FuncSpec:
        return fn
    compiled = fn._compiled[0]

    def call(x, y):
        try:
            return compiled(x, y)
        except (ArithmeticError, ValueError, TypeError):
            pass
        return fn(x, y)

    return call


def _sample(fn, *coords) -> np.ndarray:
    """fn at the broadcast points of numpy arrays and floats: one array
    call, which for a compiled F only saves time, or one scalar call per
    point when fn takes no arrays, returns another shape or raises
    EvaluationError, so the first failing point is named.  A value that is
    not finite raises EvaluationError, since NaN would slip through a
    running max unseen."""
    shape = np.broadcast(*coords).shape
    try:
        vals = np.asarray(fn(*coords), dtype=np.float64)
    except (TypeError, LookupError, EvaluationError):
        vals = None
    if vals is None or vals.shape != shape:
        points = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in coords))
        vals = np.array([float(fn(*p)) for p in points], dtype=np.float64).reshape(shape)
    if not np.isfinite(vals).all():
        raise EvaluationError("function is not finite at the sample points")
    return vals
