from __future__ import annotations

import math
import pickle
import statistics
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cocycle import (
    BUILTIN_SEEDS,
    EvaluationError,
    FuncSpec,
    ParseError,
    bivariate_expression,
    builtin_seed,
    cocycle_from_seed,
    parse_expr,
    seed_expression,
)
from cocycle.continuous import grid_keys, reconstruct_table
from cocycle.expressions import (
    _GLOBALS, _NON_FINITE, Bin, Call, Const, Num, Unary, Var, _lower, _sample, _scalar, _tokenize
)
from cocycle.smooth import reconstruct_ck_table
from cocycle.verify import cocycle_residual, kurepa_residual, symmetry_residual

finite_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


# --- reference: the tree-walking interpreter that compilation replaced -----

_REF_CONSTANTS = {"pi": math.pi, "e": math.e}
_REF_FUNCS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "sqrt": math.sqrt,
}


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return _REF_CONSTANTS[node.name]
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        return -_eval(node.operand, env)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return math.pow(a, b)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(str(exc)) from exc
    if isinstance(node, Call):
        v = _eval(node.arg, env)
        try:
            return _REF_FUNCS[node.func](v)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc)) from exc
    raise TypeError(f"not an expression node: {node!r}")


def _finite(out):
    if not math.isfinite(out):
        raise EvaluationError("non-finite result")
    return out


def pointwise(fn, *args):
    """fn(*args) at floats.  With an array argument, fn at each broadcast
    point in turn, in the arguments' broadcast shape; it raises where one
    of those calls raises."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*args)
    shape = np.broadcast(*args).shape
    columns = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    return np.array([fn(*p) for p in zip(*columns)], dtype=np.float64).reshape(shape)


def reference(node, env):
    """The former tree-walking evaluator, at each point of the arguments:
    Python errors and non-finite results raise."""
    return pointwise(lambda *values: _finite(_eval(node, dict(zip(env, values)))), *env.values())


def reference_kernel(seed, x, y):
    """The old seed kernel g(x+y) - (g(x) + g(y)), each g walked on its
    own, with the finiteness check the compiled kernel ends with."""

    def at(x, y):
        g = [reference(seed, {"t": v}) for v in (x + y, x, y)]
        return _finite(g[0] - (g[1] + g[2]))

    return pointwise(at, x, y)


def reference_compiled_kernel(g):
    """cocycle_from_seed(g) with the compiled callables that built a seed
    kernel before it became a plain tree: x + y bound once, and the
    scalar, array and interval bodies written out by hand."""
    compiled = []
    for prefix in ("_s_", "_a_", "_i_"):
        s, gx, gy = (_lower(g.ast, {g.variables[0]: v}, prefix)[0] for v in ("s", "x", "y"))
        if prefix == "_i_":
            body = f"s = _i_add(x, y); s = {s}; return _i_sub(s, _i_add({gx}, {gy}))"
        else:
            body = f"s = x + y; s = {s}; return s - (({gx}) + ({gy}))"
        if prefix == "_a_":
            body = f'with _errstate(all="ignore"): {body}'
        if prefix == "_s_":  # the scalar form ends with the finiteness check
            body = body.replace("return", "out =") + f"\n    if _isfinite(out): return out\n    {_NON_FINITE}"
        scope: dict = {}
        exec(f"def fn(x, y):\n    {body}", _GLOBALS, scope)
        compiled.append(scope["fn"])
    F = cocycle_from_seed(g)
    object.__setattr__(F, "_compiled", tuple(compiled))
    return F


# --- reference: a canonical renderer, to test the parser against -------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


# --- reference: the character scanner that the token pattern replaced -----

_REF_OPS = set("+-*/^(),")
_REF_DIGITS = set("0123456789")


def reference_tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REF_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _REF_DIGITS:
            j = i
            while j < n and src[j] in _REF_DIGITS:
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j] in _REF_DIGITS:
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k] in _REF_DIGITS:
                    j = k
                    while j < n and src[j] in _REF_DIGITS:
                        j += 1
            tokens.append(("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def tokens_or_error(tokenize, src):
    """The tokens, or the text and offset of the ParseError raised."""
    try:
        return tokenize(src)
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def _prec(node):
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    return _PREC["atom"]


def pretty(node):
    """Canonical text form; parse(pretty(a)) re-prints to the same text."""
    if isinstance(node, Num):
        v = node.value
        return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(node, (Const, Var)):
        return node.name
    if isinstance(node, Unary):
        inner = pretty(node.operand)
        return f"-({inner})" if _prec(node.operand) < _PREC["neg"] else f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({pretty(node.arg)})"
    p = _PREC[node.op]
    left, right = pretty(node.left), pretty(node.right)
    # '^' is right associative, the rest left; parenthesize the side that
    # would otherwise re-associate.
    if _prec(node.left) < p or (_prec(node.left) == p and node.op == "^"):
        left = f"({left})"
    if _prec(node.right) < p or (_prec(node.right) == p and node.op != "^"):
        right = f"({right})"
    return f"{left}{node.op}{right}"


def outcome(fn, *args):
    """fn's value, or EvaluationError when it raises one."""
    try:
        return fn(*args)
    except EvaluationError:
        return EvaluationError


def assert_same(got, want):
    if want is EvaluationError or got is EvaluationError:
        assert got is want
    else:
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def exprs(variables):
    leaves = st.one_of(
        st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e3, 1e300, math.inf])),
        st.builds(Num, st.floats(0, 10)),
        st.builds(Const, st.sampled_from(sorted(_REF_CONSTANTS))),
        st.builds(Var, st.sampled_from(variables)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Unary, sub),
            st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
            st.builds(Call, st.sampled_from(sorted(_REF_FUNCS)), sub),
        ),
        max_leaves=12,
    )


points = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), finite_floats)
point_arrays = st.lists(points, min_size=1, max_size=5).map(np.array)


def ev(src, **env):
    return FuncSpec(parse_expr(src, variables=tuple(env)), tuple(env))(*env.values())


class TestParseEval:
    def test_product(self):
        assert ev("2*x*y", x=3.0, y=0.5) == 3.0

    def test_polynomial(self):
        assert ev("t^2 - t", t=2.0) == 2.0

    def test_power_right_associative(self):
        assert ev("2^3^2", x=0.0) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert ev("-2^2", x=0.0) == -4.0

    def test_division_left_associative(self):
        assert ev("6/3/2", x=0.0) == 1.0

    def test_known_constant(self):
        assert abs(ev("sin(pi)", x=0.0)) <= 1e-15

    def test_exp_at_zero(self):
        assert ev("exp(t)", t=0.0) == 1.0

    def test_numeric_literals(self):
        assert ev("1/2 + 0.25", x=0.0) == 0.75
        assert ev("2e-1 * 5", x=0.0) == pytest.approx(1.0)

    def test_parentheses(self):
        assert ev("(x + y)^2 - x^2 - y^2", x=3.0, y=4.0) == 24.0

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2*+x", variables=("x", "y"))
        assert exc.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expr("2*z", variables=("x", "y"))

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_expr("tan(x)", variables=("x",))

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_expr("exp(x, x)", variables=("x",))

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_expr("", variables=("x",))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x + 1)", variables=("x",))

    @pytest.mark.parametrize(
        "src,position", [("x*\u00b2", 2), ("1\u00b2", 1), ("2.\u00b3", 2), ("\u0663*x", 0)]
    )
    def test_non_ascii_digit(self, src, position):
        # str.isdigit takes superscripts and other scripts' digits, which
        # float() then refused with a bare ValueError
        with pytest.raises(ParseError) as exc:
            parse_expr(src, variables=("x", "y"))
        assert exc.value.position == position


# "²" and "½" are numeric but not decimal, "٣" is a decimal digit that is
# not ASCII, "ı" and "ß" are letters, "\xa0" is a space and "𝟙" lies
# above U+FFFF
TOKEN_CHARS = list("+-*/^(),0123456789.eE x_ \t") + list("²½éßı٣\xa0𝟙")


class TestTokenizer:
    @given(st.text(st.sampled_from(TOKEN_CHARS), max_size=16))
    @settings(max_examples=1000, deadline=None)
    def test_matches_reference(self, src):
        assert tokens_or_error(_tokenize, src) == tokens_or_error(reference_tokenize, src)

    def test_every_code_point_matches_reference(self):
        # alone, ending a name and ending a number
        for cp in range(0x10000):
            for src in (chr(cp), "x" + chr(cp), "1" + chr(cp)):
                assert tokens_or_error(_tokenize, src) == tokens_or_error(reference_tokenize, src)


class TestEvaluationErrors:
    def test_pole(self):
        with pytest.raises(EvaluationError):
            ev("1/x", x=0.0)

    def test_log_of_nonpositive(self):
        with pytest.raises(EvaluationError):
            ev("log(x)", x=-1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvaluationError):
            ev("x^(-1)", x=0.0)

    def test_overflow_is_reported(self):
        with pytest.raises(EvaluationError):
            ev("exp(x)", x=1e6)

    def test_array_pole_reported(self):
        with pytest.raises(EvaluationError):
            ev("1/x", x=np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize(
        "src,x,y,message",
        [
            ("log(x)", -1.5, 2.0, "math domain error at x=-1.5, y=2.0"),
            ("1/(x-y)", 0.25, 0.25, "float division by zero at x=0.25, y=0.25"),
            ("x*1e308*y", 10.0, 10.0, "non-finite result at x=10.0, y=10.0"),
        ],
    )
    def test_scalar_error_names_its_point(self, src, x, y, message):
        with pytest.raises(EvaluationError) as exc:
            bivariate_expression(src)(x, y)
        assert (str(exc.value), exc.value.point) == (message, (x, y))

    def test_sample_names_the_first_failing_point(self):
        F = bivariate_expression("log(x) + y")
        with pytest.raises(EvaluationError) as exc:
            _sample(F, np.array([2.0, 1.0, 0.0, -1.0]), 3.0)
        assert exc.value.point == (0.0, 3.0)


class TestArrayEvaluation:
    def test_matches_scalar_path(self):
        src = "exp(x) - x^3 + sin(x)/2"
        xs = np.linspace(-2, 2, 17)
        vec = ev(src, x=xs)
        scal = np.array([ev(src, x=float(x)) for x in xs])
        assert np.allclose(vec, scal, rtol=0, atol=1e-15)

    def test_mixed_scalar_array(self):
        ys = np.array([1.0, 2.0, 3.0])
        out = ev("2*x*y", x=0.5, y=ys)
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("src", ["1", "x"])
    def test_row_not_in_ys_is_one_array_call(self, src):
        # a 0-d result used to send _sample to one scalar call per term
        F = bivariate_expression(src)
        calls = []

        def counted(*args):
            calls.append(args)
            return F(*args)

        ys = np.linspace(-1.0, 1.0, 10**6)
        vals = _sample(counted, 0.375, ys)
        assert len(calls) == 1 and vals.shape == ys.shape and vals.flags.writeable
        assert np.array_equal(vals[::997], [F(0.375, y) for y in ys[::997].tolist()])


class TestCompiledMatchesReference:
    @given(exprs(["x", "y"]), points, points)
    @settings(max_examples=400, deadline=None)
    def test_scalar(self, node, x, y):
        F = FuncSpec(node, ("x", "y"))
        assert_same(outcome(F, x, y), outcome(reference, node, {"x": x, "y": y}))

    @given(exprs(["x", "y"]), st.one_of(points, point_arrays), point_arrays)
    @settings(max_examples=400, deadline=None)
    def test_array_and_mixed(self, node, x, ys):
        F = FuncSpec(node, ("x", "y"))
        if np.ndim(x):
            x, ys = x[: len(ys)], ys[: len(x)]
        assert_same(outcome(F, x, ys), outcome(reference, node, {"x": x, "y": ys}))
        assert_same(outcome(F, ys, x), outcome(reference, node, {"x": ys, "y": x}))

    @pytest.mark.parametrize("src", ["exp(1)*x", "2^0.5*y", "pi^2", "e^x + log(2)*y", "1/0*x"])
    @pytest.mark.parametrize("x, y", [(0.75, np.array([0.5, 2.0])), (np.array([0.5, 2.0]), 0.75), (0.75, 1.5)])
    def test_constant_subtrees(self, src, x, y):
        node = parse_expr(src)
        F = bivariate_expression(src)
        assert_same(outcome(F, x, y), outcome(reference, node, {"x": x, "y": y}))

    @given(exprs(["t"]), st.one_of(points, point_arrays), st.one_of(points, point_arrays))
    @settings(max_examples=400, deadline=None)
    def test_seed_kernel_symmetric_and_exact(self, seed, x, y):
        if np.ndim(x) and np.ndim(y):
            x, y = x[: len(y)], y[: len(x)]
        F = cocycle_from_seed(FuncSpec(seed, ("t",)))
        got = outcome(F, x, y)
        assert_same(got, outcome(reference_kernel, seed, x, y))
        assert_same(outcome(F, y, x), got)

    @pytest.mark.parametrize("src", ["1/(1/x)", "exp(-1/abs(x)) + y"])
    def test_array_error_raises_where_it_occurs(self, src):
        # 1/0 is inf and 1/inf is 0 again, so the end result is finite
        with pytest.raises(EvaluationError):
            bivariate_expression(src)(np.array([0.0, 1.0]), 1.0)


wide_points = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 709.0, 710.0, 1e300, -1e300]),
    st.floats(-1e3, 1e3),
)
wide_arrays = st.one_of(
    st.lists(wide_points, min_size=1, max_size=8).map(np.array),
    wide_points.map(np.array),  # 0-d: numpy returns its results as numpy scalars
)
powers = st.builds(Bin, st.just("^"), exprs(["x", "y"]), exprs(["x", "y"]))


class TestArrayEqualsScalarCalls:
    """An array call F(x, ys) equals [F(x, y) for y in ys] bit for bit,
    whatever numpy's SIMD kernels compute, or both raise."""

    @given(st.one_of(exprs(["x", "y"]), powers), st.one_of(wide_points, wide_arrays), wide_arrays)
    @settings(max_examples=400, deadline=None)
    def test_bit_for_bit(self, node, x, ys):
        F = FuncSpec(node, ("x", "y"))
        if np.ndim(x) and np.ndim(ys):
            x, ys = x[: len(ys)], ys[: len(x)]
        for args in ((x, ys), (ys, x)):
            got, want = outcome(F, *args), outcome(pointwise, F, *args)
            if want is EvaluationError or got is EvaluationError:
                assert got is want
            else:
                assert type(got) is np.ndarray  # a 0-d call too
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("src", ["0", "x + 1", "x", "exp(x)", "y"])
    def test_zero_d_call_is_an_ndarray(self, src):
        # numpy turns 0-d results into numpy scalars, a constant is a float
        got = bivariate_expression(src)(np.array(0.5), 0.5)
        assert type(got) is np.ndarray and got.shape == ()
        assert got.tobytes() == np.array(bivariate_expression(src)(0.5, 0.5)).tobytes()

    @pytest.mark.parametrize("src", ["exp(x)", "log(abs(x) + 1e-300)", "sin(x)", "cos(x)", "x^3", "2^x"])
    def test_elementary_functions_on_many_points(self, src):
        # numpy's exp, log and power differ from libm's in the last bit on
        # a few percent of such points, on some CPUs
        xs = np.linspace(-4.0, 4.0, 4097)
        F = seed_expression(src, "x")
        assert F(xs).tobytes() == np.array([F(x) for x in xs.tolist()]).tobytes()


def _value_or_error(fn, *args):
    try:
        out = fn(*args)
    except EvaluationError as exc:
        return str(exc), exc.point
    return type(out), out.hex()  # signed zeros too


class TestScalarEntry:
    """``_scalar(F)`` is F at floats, through the compiled scalar form."""

    @given(st.one_of(exprs(["x", "y"]), powers), wide_points, wide_points)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_call(self, node, x, y):
        F = FuncSpec(node, ("x", "y"))
        assert _value_or_error(_scalar(F), x, y) == _value_or_error(F, x, y)

    def test_other_callables_are_themselves(self):
        class Traced(FuncSpec):
            def evaluate(self, *args):
                return super().evaluate(*args)

        plain = lambda x, y: x * y  # noqa: E731
        assert _scalar(plain) is plain
        traced = Traced(parse_expr("x * y"), ("x", "y"))
        assert _scalar(traced) is traced

    def test_arity_error_is_the_calls(self):
        with pytest.raises(TypeError, match="expected 1 arguments, got 2"):
            _scalar(seed_expression("t"))(0.5, 0.5)

    # F(0, 0) is the only call through evaluate: the lattice solver and
    # the ck route take it once, the residual checks never
    RUNS = {
        "euclid-chain": (lambda F: reconstruct_table(F, grid_keys((-2, 2), denominators=12)).values, 1),
        "dyadic": (lambda F: reconstruct_table(F, grid_keys((-2, 2), dyadic_level=5), "dyadic").values, 1),
        "ck": (lambda F: reconstruct_ck_table(F, grid_keys((-1, 1), dyadic_level=3)).values, 1),
        "check": (lambda F: [r.to_json_obj() for r in (
            kurepa_residual(F, [(0.1, 0.2, 0.3), (1.5, -0.5, 2.0)]).results
            + symmetry_residual(F, [(0.25, -1.5)]).results
            + cocycle_residual(F, math.sin, [(0.25, -1.5)]).results
        )], 0),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_hot_loops_skip_evaluate(self, name, monkeypatch):
        run, calls = self.RUNS[name]
        F = cocycle_from_seed(builtin_seed("sine"))
        want = run(lambda x, y: F(x, y))  # a plain callable gives the same values
        evaluate, seen = FuncSpec.evaluate, []

        def counted(spec, *args):
            seen.append(args)
            return evaluate(spec, *args)

        monkeypatch.setattr(FuncSpec, "evaluate", counted)
        assert run(F) == want
        assert seen == [(0.0, 0.0)] * calls


class TestCallCost:
    def test_scalar_kernel_call_under_3us(self):
        # the tree-walking interpreter took about 12 us per call
        F = cocycle_from_seed(builtin_seed("expo"))
        batches = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10_000):
                F(0.3, 0.7)
            batches.append((time.perf_counter() - start) / 10_000)
        assert statistics.median(batches) < 3e-6


class TestPretty:
    @pytest.mark.parametrize(
        "src",
        [
            "2*x*y",
            "x^2 - y^2",
            "-(x + y)",
            "exp(x) + sin(y)",
            "(x + y)/(x - y)",
            "2^3^2",
            "-x^2",
            "sqrt(abs(t))",
        ],
    )
    def test_fixpoint(self, src):
        variables = ("x", "y", "t")
        once = pretty(parse_expr(src, variables=variables))
        twice = pretty(parse_expr(once, variables=variables))
        assert once == twice

    @given(exprs(["x", "y"]))
    @settings(max_examples=300, deadline=None)
    def test_random_tree_round_trip(self, node):
        # every tree without an inf literal survives print and re-parse
        assume("inf" not in repr(node))
        assert parse_expr(pretty(node), variables=("x", "y")) == node

    def test_value_preserved(self):
        src = "-(x + 1)^2/(y - 3) + x*y"
        node = parse_expr(src, variables=("x", "y"))
        F, G = (FuncSpec(n, ("x", "y")) for n in (node, parse_expr(pretty(node), variables=("x", "y"))))
        for x, y in [(0.5, 1.25), (-2.0, 7.0), (3.0, 0.0)]:
            assert F(x, y) == G(x, y)


class TestFuncSpec:
    def test_bivariate_call(self):
        F = bivariate_expression("2*x*y")
        assert F(3.0, 0.5) == 3.0
        assert F.arity == 2

    def test_custom_variable_names(self):
        F = bivariate_expression("u + v", variables=("u", "v"))
        assert F(1.0, 2.0) == 3.0

    def test_seed_expression_arity(self):
        g = seed_expression("t^2 - t")
        assert g.arity == 1
        assert g(2.0) == 2.0

    def test_wrong_argument_count(self):
        F = bivariate_expression("x + y")
        with pytest.raises(TypeError):
            F(1.0)

    def test_builtin_names(self):
        assert set(BUILTIN_SEEDS) == {"square", "cube", "expo", "sine", "hoelder"}

    def test_hoelder_builtin(self):
        g = builtin_seed("hoelder")
        assert g(-0.25) == 0.5
        assert g(0.0) == 0.0

    def test_pickle_round_trip(self):
        F = cocycle_from_seed(builtin_seed("sine"))
        G = pickle.loads(pickle.dumps(F))
        assert G == F
        assert G(0.3, 0.7) == F(0.3, 0.7)

    @pytest.mark.parametrize("src,names", [("x*x", ("x", "x")), ("2*y + 1", ("y", "y"))])
    def test_repeated_variable_refused(self, src, names):
        # the last name would bind: x*x over (x, x) at (2, 3) would be 9.0
        with pytest.raises(ValueError, match="variable names must be distinct"):
            bivariate_expression(src, names)
        with pytest.raises(ValueError, match="variable names must be distinct"):
            FuncSpec(parse_expr(src, names), names)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_seed("gauss")


class TestCocycleBuilder:
    def test_square_seed_value(self):
        F = cocycle_from_seed(builtin_seed("square"))
        assert F(1.0, 2.0) == 4.0

    def test_zero_on_axes(self):
        F = cocycle_from_seed(builtin_seed("square"))
        for x in (-1.5, 0.0, 0.7, 2.0):
            assert F(x, 0.0) == 0.0
            assert F(0.0, x) == 0.0

    def test_expo_seed_value(self):
        F = cocycle_from_seed(builtin_seed("expo"))
        assert F(1.0, 1.0) == pytest.approx(math.e**2 - 2 * math.e, abs=1e-12)

    def test_arity_requirement(self):
        with pytest.raises(ValueError):
            cocycle_from_seed(bivariate_expression("x + y"))

    @given(finite_floats, finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y):
        F = cocycle_from_seed(builtin_seed("cube"))
        assert F(x, y) == F(y, x)

    def test_array_evaluation(self):
        F = cocycle_from_seed(builtin_seed("square"))
        ys = np.array([0.5, 1.0, 1.5])
        out = F(1.0, ys)
        want = (1.0 + ys) ** 2 - 1.0 - ys**2
        assert np.allclose(out, want, rtol=0, atol=1e-15)


# --- interval enclosures ---------------------------------------------------

unit = st.floats(0, 1)


@st.composite
def boxes_and_points(draw, arity):
    """A box of (lo, hi) pairs and a point inside it."""
    box, point = [], []
    for _ in range(arity):
        a, b = sorted((draw(finite_floats), draw(finite_floats)))
        if draw(st.booleans()):  # thin boxes too, down to a single point
            b = min(b, a + draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3])))
        box.append((a, b))
        point.append(min(max(a + draw(unit) * (b - a), a), b))
    return box, point


def assert_encloses(F, box, point):
    lo, hi = F.enclose(*box)  # never raises, whatever the box
    assert not (math.isnan(lo) or math.isnan(hi)) and lo <= hi
    value = outcome(F, *point)
    if value is not EvaluationError:
        assert lo <= value <= hi


class TestEnclosure:
    @given(exprs(["x", "y"]), boxes_and_points(2))
    @settings(max_examples=500, deadline=None)
    def test_contains_scalar_value(self, node, box_point):
        assert_encloses(FuncSpec(node, ("x", "y")), *box_point)

    @given(exprs(["t"]), boxes_and_points(2))
    @settings(max_examples=300, deadline=None)
    def test_seed_kernel_contains_scalar_value(self, seed, box_point):
        assert_encloses(cocycle_from_seed(FuncSpec(seed, ("t",))), *box_point)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SEEDS))
    @given(boxes_and_points(2))
    @settings(max_examples=60, deadline=None)
    def test_builtin_kernels(self, name, box_point):
        assert_encloses(cocycle_from_seed(builtin_seed(name)), *box_point)

    @pytest.mark.parametrize(
        "src,box,want",
        [
            ("sin(x)", (1.0, 2.0), (None, 1.0)),  # pi/2 inside
            ("cos(x)", (3.0, 3.5), (-1.0, None)),  # pi inside
            ("sin(x)", (-100.0, 100.0), (-1.0, 1.0)),
            ("x^2", (-1.0, 2.0), (0.0, None)),  # even power across 0
            ("abs(x)", (-3.0, 2.0), (0.0, 3.0)),
        ],
    )
    def test_extrema(self, src, box, want):
        lo, hi = bivariate_expression(src).enclose(box, (0.0, 0.0))
        assert want[0] is None or lo == want[0]
        assert want[1] is None or hi == want[1]

    @pytest.mark.parametrize(
        "src,box",
        [
            ("1/x", (-1.0, 1.0)),  # divisor holds 0
            ("1/x", (0.0, 1.0)),
            ("log(x)", (-1.0, 2.0)),  # partly outside the domain
            ("sqrt(x)", (-1e-9, 1.0)),
            ("x^0.5", (-1.0, 1.0)),
            ("x^(-1)", (-1.0, 1.0)),
            ("exp(x) - exp(x)", (1e300, 1e300)),  # inf - inf
        ],
    )
    def test_domain_problem_is_unbounded(self, src, box):
        assert bivariate_expression(src).enclose(box, (0.0, 0.0)) == (-math.inf, math.inf)

    def test_point_box_is_tight(self):
        F = cocycle_from_seed(builtin_seed("expo"))
        lo, hi = F.enclose((0.3, 0.3), (0.7, 0.7))
        assert lo <= F(0.3, 0.7) <= hi
        assert hi - lo <= 64 * math.ulp(F(0.3, 0.7))

    def test_arity(self):
        with pytest.raises(TypeError):
            bivariate_expression("x + y").enclose((0.0, 1.0))


class TestSeedKernelTree:
    """A seed kernel is the plain tree g(x+y) - (g(x) + g(y))."""

    @given(exprs(["t"]), st.one_of(points, point_arrays), st.one_of(points, point_arrays),
           boxes_and_points(2))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_hand_written_body(self, seed, x, y, box_point):
        if np.ndim(x) and np.ndim(y):
            x, y = x[: len(y)], y[: len(x)]
        g = FuncSpec(seed, ("t",))
        F, ref = cocycle_from_seed(g), reference_compiled_kernel(g)
        got, want = outcome(F, x, y), outcome(ref, x, y)
        assert_same(got, want)
        if want is not EvaluationError:  # bit for bit, signed zeros too
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        box = box_point[0]
        assert [v.hex() for v in F.enclose(*box)] == [v.hex() for v in ref.enclose(*box)]

    def test_is_a_plain_tree(self):
        F = cocycle_from_seed(builtin_seed("square"))
        assert (F.variables, F.arity) == (("x", "y"), 2)
        assert F == bivariate_expression("(x + y)^2 - (x^2 + y^2)")

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_seed_variable_named_like_a_kernel_variable(self, name):
        F = cocycle_from_seed(seed_expression(f"{name}^3 - exp({name})", variable=name))
        assert F == cocycle_from_seed(seed_expression("t^3 - exp(t)"))


class TestDepthLimit:
    @pytest.mark.parametrize(
        "build,deepest",
        [
            (lambda n: bivariate_expression("+".join(["x*y"] * n)), 200),
            (lambda n: bivariate_expression("+".join(["1"] * n)), 199),  # a constant c nests ((c), (c))
            (lambda n: bivariate_expression("-" * n + "x"), 200),
            (lambda n: cocycle_from_seed(seed_expression("^".join(["t"] * n))), 199),
        ],
        ids=["products", "constants", "negations", "seed-power-chain"],
    )
    def test_deepest_tree_compiles(self, build, deepest):
        F = build(deepest)
        F(0.5, 0.25)
        F(np.array([0.5, 0.75]), 0.25)
        F.enclose((0.5, 0.75), (0.25, 0.25))
        with pytest.raises(ValueError, match="nested too deeply"):
            build(deepest + 1)

    def test_tree_built_in_code(self):
        node = Var("x")
        for _ in range(10_000):
            node = Bin("+", node, Var("y"))
        with pytest.raises(ValueError, match="nested too deeply for Python to compile"):
            FuncSpec(node, ("x", "y"))

    @pytest.mark.parametrize("depth", [201, 990, 3000])
    @pytest.mark.parametrize(
        "wrap",
        [Unary, lambda n: Bin("+", n, Var("y")), lambda n: Call("exp", n), lambda n: Bin("^", Var("y"), n)],
        ids=["neg", "add", "exp", "pow"],
    )
    def test_chain_built_in_code(self, wrap, depth):
        # past CPython's 200 parentheses or the interpreter's stack, each
        # chain is refused with ValueError, never RecursionError
        node = Var("x")
        for _ in range(depth):
            node = wrap(node)
        with pytest.raises(ValueError, match="nested too deeply"):
            FuncSpec(node, ("x", "y"))

    @pytest.mark.parametrize("opening", ["(", "exp("])
    def test_parser_recursion_is_a_parse_error(self, opening):
        src = opening * 300 + "x" + ")" * 300
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse_expr(src)
        assert 0 < exc.value.position < len(src)
        assert parse_expr("(x)") == Var("x")
