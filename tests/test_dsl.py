"""Generator expression parsing and evaluation.

The worked examples' generators, taken from their scenario factories,
double as parser fixtures: their text is pinned, and their values are
cross-checked against hand-coded closed forms at random points.  The
compiled evaluator, staged for every set of late slots, is held bit for
bit to the tree-walking reference interpreter kept below.
"""

import math
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfbsde import core, dsl
from mfbsde.dsl import Bin, Call, Neg, Num, Var
from mfbsde.errors import DimensionError, EvalDomainError, InvalidInput, ParseError
from mfbsde.scenario import example_21, example_22, example_31, example_41
from strategies import GENERATED_TEXTS, RAW_TEXTS


def _examples():
    """The worked examples' generators, from their scenario factories:
    ex2.1 at alpha 0 and 0.5, ex2.2, and the pairs of ex3.1 and ex4.1."""
    ex31, ex41 = example_31(), example_41()
    return [example_21(alpha=0.0).f, example_21(alpha=0.5).f, example_22().f,
            ex31.f1, ex31.f2, ex41.f1, ex41.f2]


# ---------------------------------------------------------------------------
# reference evaluators
# ---------------------------------------------------------------------------


def math_eval_scalar(expr, s, y, ybar, z, zbar) -> float:
    """Scalar-path evaluation that cross-checks vectorisation.

    Only supports the n = d = 1 case; deliberately routed through python
    floats rather than numpy arrays.
    """

    def go(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return {"s": s, "y": y, "ybar": ybar, "z": z, "zbar": zbar}[node.name]
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, Bin):
            a, b = go(node.left), go(node.right)
            return {
                "+": lambda: a + b,
                "-": lambda: a - b,
                "*": lambda: a * b,
                "/": lambda: a / b,
                "^": lambda: a**b,
            }[node.op]()
        if isinstance(node, Call):
            args = [go(a) for a in node.args]
            return {
                "abs": lambda: abs(args[0]),
                "sin": lambda: math.sin(args[0]),
                "cos": lambda: math.cos(args[0]),
                "exp": lambda: math.exp(args[0]),
                "min": lambda: min(args),
                "max": lambda: max(args),
                "norm2": lambda: abs(args[0]),
                "dot": lambda: args[0] * args[1],
            }[node.func]()
        raise TypeError(node)

    return go(expr.components[0])


def _interpret(node, env):
    """Tree-walking evaluation on (P, width) arrays, reductions by np.sum."""
    if isinstance(node, Num):
        return np.full((1, 1), node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_interpret(node.operand, env)
    if isinstance(node, Bin):
        a, b = _interpret(node.left, env), _interpret(node.right, env)
        if node.op == "/":
            if np.any(b == 0.0):
                raise EvalDomainError("division by zero", dsl._node_text(node), node.pos)
            return a / b
        if node.op == "^":
            e = float(b[0, 0])
            if not math.isfinite(e):
                raise EvalDomainError("non-finite exponent", dsl._node_text(node), node.pos)
            if e != round(e) and np.any(a < 0.0):
                raise EvalDomainError(
                    "fractional power of a negative base", dsl._node_text(node), node.pos
                )
            if e < 0 and np.any(a == 0.0):
                raise EvalDomainError("negative power of zero", dsl._node_text(node), node.pos)
            return a**e
        return {"+": np.add, "-": np.subtract, "*": np.multiply}[node.op](a, b)
    args = [_interpret(a, env) for a in node.args]
    if node.func == "norm2":
        return np.sqrt(np.sum(args[0] * args[0], axis=1, keepdims=True))
    if node.func == "dot":
        return np.sum(args[0] * args[1], axis=1, keepdims=True)
    if node.func in ("abs", "sin", "cos", "exp"):
        a = args[0]
        if a.shape[1] > 1:
            a = np.sqrt(np.sum(a * a, axis=1, keepdims=True))
        return getattr(np, node.func)(a)
    return {"min": np.minimum, "max": np.maximum}[node.func](*args)


def reference_evaluate(expr, s, y, ybar, z, zbar, n, d, first=()):
    """Interpreter reading of :func:`dsl.evaluate` for (P, n) / (P, d, n) input:
    the subtrees ``first``, in order, then every component evaluated
    separately, then the non-finite check."""
    P = y.shape[0]
    env = {
        "s": np.asarray(s, dtype=np.float64).reshape(-1, 1),
        "y": y,
        "ybar": ybar.reshape(-1, n),
        "z": z.reshape(z.shape[0], d * n),
        "zbar": zbar.reshape(-1, d * n),
    }
    for node in first:
        _interpret(node, env)
    out = np.empty((P, n))
    comps = expr.components
    for j in range(n):
        val = _interpret(comps[0] if len(comps) == 1 else comps[j], env)
        out[:, j] = np.broadcast_to(val[:, 0], (P,))
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("non-finite value", dsl.to_text(expr), 1)
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_power_growth_text():
    e = dsl.parse("1 + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + norm2(zbar)^1.5")
    assert e == example_21(alpha=0.5).f


def test_parse_time_dependent_text():
    e = dsl.parse(
        "1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))"
    )
    assert e == example_22().f


def test_syntax_error_carries_column():
    with pytest.raises(ParseError) as exc:
        dsl.parse("1 + )")
    assert exc.value.column == 5


@pytest.mark.parametrize(
    "bad",
    ["", "1 +", "foo(y)", "abs(y", "dot(z)", "min(1)", "y ybar", "1..2"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises((ParseError, InvalidInput)):
        dsl.parse(bad)


@pytest.mark.parametrize("text,column", [("1.0*zbar + 1e400*0", 12), ("y^1e400", 3),
                                         ("1 ; 2.5E+309", 5)])
def test_number_beyond_doubles_is_a_parse_error(text, column):
    with pytest.raises(ParseError) as exc:
        dsl.parse(text)
    assert exc.value.column == column
    assert "is not finite" in str(exc.value)


def test_unknown_identifier():
    with pytest.raises(ParseError):
        dsl.parse("1 + q")


def test_terminal_variables_are_separate():
    # w is a terminal-only symbol; the driver namespace rejects it
    with pytest.raises(ParseError):
        dsl.parse("sin(w)")
    dsl.parse("sin(w)", dsl.TERMINAL_VARS)


# ---------------------------------------------------------------------------
# precedence
# ---------------------------------------------------------------------------


def _scalar(expr_text, y):
    e = dsl.parse(expr_text)
    return math_eval_scalar(e, 0.0, y, 0.0, 0.0, 0.0)


def test_unary_minus_binds_looser_than_power():
    assert _scalar("-y^2", 3.0) == -9.0


def test_power_is_right_associative():
    assert _scalar("y^2^3", 2.0) == 256.0  # y^(2^3)


def test_negative_exponent():
    assert _scalar("2^-0.5", 0.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_mul_binds_tighter_than_add():
    assert _scalar("1 + 2*3", 0.0) == 7.0


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

ROUND_TRIP_CASES = [
    "1 + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + norm2(zbar)^1.5",
    "1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))",
    "1 + abs(sin(y)) + abs(sin(ybar)) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))",
    "1 + abs(y) + abs(ybar) + 0.5*(norm2(z) + norm2(zbar))^2",
    "1 + abs(sin(y)) + abs(sin(ybar)) + norm2(z) + norm2(zbar)",
    "-y^2",
    "y^2^3",
    "2^-0.5",
    "min(y, ybar) - max(z, zbar)",
    "dot(z, zbar) / (1 + norm2(z))",
    "sin(y) ; cos(ybar)",
    "exp(-(y - ybar)^2)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_fixed_point(text):
    ast1 = dsl.parse(text)
    printed = dsl.to_text(ast1)
    ast2 = dsl.parse(printed)
    assert ast1 == ast2
    assert dsl.to_text(ast2) == printed


@settings(max_examples=60, deadline=None)
@given(GENERATED_TEXTS)
def test_round_trip_generated(text):
    ast1 = dsl.parse(text)
    assert dsl.parse(dsl.to_text(ast1)) == ast1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_power_growth_at_origin():
    e = example_21(alpha=0.5).f
    v = dsl.evaluate(
        e, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1)),
        np.zeros((1, 1, 1)), n=1, d=1,
    )
    assert v[0, 0] == 1.0


def test_split_second_part_reference_value():
    # f2 = 1 + |y| + |ybar| + 0.5*(|z| + |zbar|)^2 at y=1, |z|=1, rest 0
    e = example_31().f2
    assert math_eval_scalar(e, 0.0, 1.0, 0.0, 1.0, 0.0) == 2.5


def test_constant_expression_ignores_inputs(rng):
    e = dsl.parse("3.5 - 1")
    for _ in range(5):
        y = rng.standard_normal((7, 1))
        z = rng.standard_normal((7, 1, 1))
        v = dsl.evaluate(e, rng.uniform(), y, y, z, z, n=1, d=1)
        np.testing.assert_array_equal(v, 2.5)


def test_vectorised_matches_scalar(rng):
    # every worked example, scalar case: path-batched evaluation against
    # the pure python evaluator, 1e-14 relative
    exprs = _examples()
    P = 64
    s = 0.37
    y = rng.uniform(-3, 3, (P, 1))
    yb = rng.uniform(-3, 3, (P, 1))
    z = rng.uniform(-3, 3, (P, 1, 1))
    zb = rng.uniform(-3, 3, (P, 1, 1))
    for e in exprs:
        batch = dsl.evaluate(e, s, y, yb, z, zb, n=1, d=1)
        for p in range(P):
            ref = math_eval_scalar(
                e, s, y[p, 0], yb[p, 0], z[p, 0, 0], zb[p, 0, 0]
            )
            assert batch[p, 0] == pytest.approx(ref, rel=1e-14, abs=1e-14)


def test_builtins_against_hand_coded(rng):
    # closed forms written independently of the parser
    def ex21(a, s, y, yb, z, zb):
        return 1 + abs(y) + abs(yb) + 0.5 * z * z + abs(zb) ** (1 + a)

    def ex22(s, y, yb, z, zb):
        return 1 + s + abs(y) + abs(yb) + 0.5 * z * z + abs(math.sin(abs(zb)))

    def f31a(s, y, yb, z, zb):
        return 1 + abs(math.sin(y)) + abs(math.sin(yb)) + 0.5 * z * z + abs(
            math.sin(abs(zb))
        )

    def f31b(s, y, yb, z, zb):
        return 1 + abs(y) + abs(yb) + 0.5 * (abs(z) + abs(zb)) ** 2

    def f41a(s, y, yb, z, zb):
        return 1 + abs(math.sin(y)) + abs(math.sin(yb)) + abs(z) + abs(zb)

    # in the order of _examples()
    refs = [lambda *a: ex21(0.0, *a), lambda *a: ex21(0.5, *a),
            ex22, f31a, f31b, f41a, f31b]
    cases = zip(_examples(), refs)
    pts = rng.uniform(-4, 4, (1000, 5))
    pts[:, 0] = np.abs(pts[:, 0])  # time stays nonnegative
    for expr, ref in cases:
        for s, y, yb, z, zb in pts:
            got = math_eval_scalar(expr, s, y, yb, z, zb)
            want = ref(s, y, yb, z, zb)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_vector_generator_components(rng):
    # explicit components must each be scalar-valued; vector slots reduce
    # through norm2 (or any scalar map)
    e = dsl.parse("norm2(y) + 1 ; norm2(ybar) - 1")
    P = 5
    y = rng.standard_normal((P, 2))
    z = np.zeros((P, 2, 2))
    out = dsl.evaluate(e, 0.0, y, y, z, z, n=2, d=2)
    assert out.shape == (P, 2)
    np.testing.assert_allclose(
        out[:, 0], np.linalg.norm(y, axis=1) + 1.0, rtol=1e-14
    )


def test_single_component_broadcasts_to_vector(rng):
    # a one-component generator serves every output dimension
    e = example_41().f1
    P = 4
    y = rng.standard_normal((P, 2))
    z = rng.standard_normal((P, 2, 2))
    out = dsl.evaluate(e, 0.0, y, y, z, z, n=2, d=2)
    assert out.shape == (P, 2)
    np.testing.assert_array_equal(out[:, 0], out[:, 1])


def test_norms_use_euclidean_reading(rng):
    # vector slots are reduced by their Euclidean norm before scalar maps
    e = dsl.parse("norm2(z)")
    z = rng.standard_normal((3, 2, 1))
    out = dsl.evaluate(e, 0.0, np.zeros((3, 1)), np.zeros((3, 1)), z, z, n=1, d=2)
    np.testing.assert_allclose(
        out[:, 0], np.sqrt(np.sum(z**2, axis=(1, 2))), rtol=1e-14
    )


def test_per_path_time_vector(rng):
    e = dsl.parse("s + y")
    P = 6
    svec = rng.uniform(0, 1, P)
    y = np.ones((P, 1))
    z = np.zeros((P, 1, 1))
    out = dsl.evaluate(e, svec, y, y, z, z, n=1, d=1)
    np.testing.assert_allclose(out[:, 0], svec + 1.0, rtol=1e-15)


def test_domain_error_negative_base_fractional_power():
    e = dsl.parse("y^0.5")
    with pytest.raises(EvalDomainError):
        dsl.evaluate(
            e, 0.0, -np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1)),
            np.zeros((1, 1, 1)), n=1, d=1,
        )


@pytest.mark.parametrize("text,node_text,column", [
    ("1 + 0.5*norm2(z)^2 + abs(y)^exp(1000)", "abs(y)^exp(1000)", 28),
    ("y^(0*exp(1000))", "y^(0 * exp(1000))", 2),
])
def test_non_finite_exponent_is_domain_error(text, node_text, column):
    e = dsl.parse(text)
    slots = (0.0, np.ones((3, 1)), np.ones(1), np.ones((3, 1, 1)), np.zeros((1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (lambda: dsl.evaluate(e, *slots), lambda: reference_evaluate(e, *slots, 1, 1)):
            with pytest.raises(EvalDomainError) as exc:
                run()
            assert str(exc.value) == f"non-finite exponent in '{node_text}' (column {column})"


def test_division_by_zero_is_domain_error():
    e = dsl.parse("1 / y")
    with pytest.raises(EvalDomainError):
        dsl.evaluate(
            e, 0.0, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1)),
            np.zeros((1, 1, 1)), n=1, d=1,
        )


def test_dimension_mismatch_rejected(rng):
    e = dsl.parse("y ; ybar")  # two components
    y = np.zeros((4, 1))
    z = np.zeros((4, 1, 1))
    with pytest.raises(DimensionError):
        dsl.evaluate(e, 0.0, y, y, z, z, n=1, d=1)


# (slot, n, d, given shape, path count it reads as; None: DimensionError)
SLOT_SHAPES = [
    # a scalar, for a width-1 slot
    ("s", 1, 1, (), 1),
    ("y", 1, 1, (), 1),
    ("z", 1, 1, (), 1),
    # (m,): one path
    ("y", 2, 1, (2,), 1),
    ("y", 1, 1, (1,), 1),
    # (P,), for a width-1 slot
    ("s", 1, 1, (5,), 5),
    ("y", 1, 1, (5,), 5),
    ("z", 1, 1, (5,), 5),
    # (P, m)
    ("y", 2, 1, (5, 2), 5),
    ("y", 1, 1, (5, 1), 5),
    ("s", 1, 1, (5, 1), 5),
    # (d, n), and flattened (d*n,): one path
    ("z", 2, 3, (3, 2), 1),
    ("z", 2, 3, (6,), 1),
    ("z", 1, 3, (3, 1), 1),
    # (P, d) when n = 1
    ("z", 1, 3, (5, 3), 5),
    ("z", 1, 1, (5, 1), 5),
    # (P, d, n)
    ("z", 2, 3, (5, 3, 2), 5),
    ("z", 1, 1, (5, 1, 1), 5),
    # the wrong width
    ("s", 1, 1, (5, 2), None),
    ("y", 2, 1, (), None),
    ("y", 2, 1, (3,), None),
    ("y", 2, 1, (5, 3), None),
    ("z", 2, 3, (5,), None),
    ("z", 2, 3, (5, 3, 3), None),
    ("z", 1, 3, (5, 2), None),
    # too many axes
    ("y", 2, 1, (5, 2, 1), None),
    ("z", 2, 3, (5, 3, 2, 1), None),
    # (P, d*n) when n > 1
    ("z", 2, 3, (5, 6), None),
]


@pytest.mark.parametrize("slot,n,d,shape,rows", SLOT_SHAPES, ids=str)
def test_slot_shapes_accepted_and_rejected(slot, n, d, shape, rows):
    # every accepted shape reads as the (rows, d, n) values in row-major
    # order, in evaluate and in a staged program (the slot bound or late)
    e = dsl.parse("s + dot(y, ybar) + dot(z, zbar)")
    slots = {"s": 0.5, "y": np.arange(1.0, n + 1.0), "ybar": 10.0 ** np.arange(n),
             "z": np.arange(1.0, d * n + 1.0).reshape(d, n),
             "zbar": 10.0 ** np.arange(d * n).reshape(d, n)}
    slots[slot] = np.arange(1.0, math.prod(shape) + 1.0).reshape(shape)
    runs = [lambda: dsl.evaluate(e, *slots.values(), n=n, d=d)]
    for late in ({slot}, set(slots) - {slot}):
        program = dsl.Staged(e, late, n=n, d=d)
        bind = {k: v for k, v in slots.items() if k not in late}
        call = {k: v for k, v in slots.items() if k in late}
        runs.append(lambda p=program, b=bind, c=call: (p.bind(**b), p(**c))[1])
    if rows is None:
        for run in runs:
            with pytest.raises(DimensionError):
                run()
        return
    canon = dict(slots)
    canon["s"] = np.broadcast_to(np.reshape(slots["s"], (-1,)), (rows,))
    canon["y"] = np.broadcast_to(np.reshape(slots["y"], (-1, n)), (rows, n))
    canon["z"] = np.broadcast_to(np.reshape(slots["z"], (-1, d, n)), (rows, d, n))
    want = reference_evaluate(e, *canon.values(), n=n, d=d)
    for run in runs:
        assert _same_bits(run(), want)


# ---------------------------------------------------------------------------
# compiled evaluation against the reference interpreter
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _driver_inputs(rng, P, n, d):
    """Inputs shaped as the solvers pass them: the state is a strided node
    slice of a (P, L, n) array, and one path carries signed zeros."""
    y = rng.uniform(-2, 2, (P, 3, n))[:, 1]
    yb = rng.uniform(-2, 2, n)
    z = rng.uniform(-2, 2, (P, d, n))
    zb = rng.uniform(-2, 2, (d, n))
    y[0] = -0.0
    z[0] = -0.0
    return y, yb, z, zb


COMPILED_CASES = [
    # vector arguments of abs, sin, cos and exp act on the Euclidean norm
    ("abs(y) + sin(ybar) * exp(-norm2(z)) ; cos(zbar) - abs(z) + s", 2, 2),
    ("norm2(z)^2 + dot(y, ybar) ; dot(z, zbar) / (1 + norm2(zbar))", 2, 2),
    ("dot(y, y) - dot(ybar, y) ; max(norm2(y), s) - min(norm2(ybar), 0.5)", 2, 2),
    ("1 + abs(sin(y)) + abs(sin(ybar)) + norm2(z) + norm2(zbar)", 2, 2),
    # one expression broadcast to both components
    ("exp(-(norm2(y) - norm2(ybar))^2) + dot(z, zbar)", 2, 2),
    # z is 8 wide: the reductions take numpy's own row sum
    ("norm2(z) + dot(z, zbar) ; abs(zbar) * sin(z)", 2, 4),
    ("1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))", 1, 1),
]


@pytest.mark.parametrize("text,n,d", COMPILED_CASES)
@pytest.mark.parametrize("P", [1, 3, 257])
def test_compiled_matches_reference_bit_for_bit(rng, text, n, d, P):
    e = dsl.parse(text)
    y, yb, z, zb = _driver_inputs(rng, P, n, d)
    for s in (0.3, rng.uniform(0, 1, P)):
        got = dsl.evaluate(e, s, y, yb, z, zb, n=n, d=d)
        want = reference_evaluate(e, s, y, yb, z, zb, n=n, d=d)
        assert _same_bits(got, want)


def test_dot_of_signed_zeros_matches_numpy_sum():
    # numpy sums a row from +0, so a row of -0 products sums to +0
    e = dsl.parse("dot(y, ybar)")
    y = np.array([[-0.0, -0.0], [0.0, -0.0], [1.0, -0.0]])
    z = np.zeros((3, 2, 2))
    got = dsl.evaluate(e, 0.0, y, np.ones(2), z, z, n=2, d=2)
    want = np.sum(y * np.ones(2), axis=1)
    assert _same_bits(got[:, 0], want)
    assert not np.signbit(got[0, 0])


def test_row_norm_matches_numpy_at_every_width(rng):
    for width in range(1, 11):
        a = rng.standard_normal((101, width))
        for arr in (a, np.asfortranarray(a), a[::-1]):
            want = np.sqrt(np.sum(arr * arr, axis=1, keepdims=True))
            assert _same_bits(core.row_norm(arr), want)


def test_compiled_program_is_cached_on_the_expression(rng):
    e = dsl.parse("norm2(z) + y")
    assert e._programs is e._programs
    # caching keeps value semantics: equal text, equal expressions, and an
    # evaluated expression still pickles
    assert e == dsl.parse("norm2(z) + y")
    y, yb, z, zb = _driver_inputs(rng, 5, 1, 2)
    first = dsl.evaluate(e, 0.0, y, yb, z, zb, n=1, d=2)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e
    assert _same_bits(dsl.evaluate(copy, 0.0, y, yb, z, zb, n=1, d=2), first)


def test_free_variables_are_collected_once(rng, monkeypatch):
    e = dsl.parse("1 + abs(y) + norm2(z)^2 + ybar")
    y, yb, z, zb = _driver_inputs(rng, 5, 1, 2)
    first = dsl.evaluate(e, 0.0, y, yb, z, zb, n=1, d=2)
    assert e.free_variables == {"y", "z", "ybar"}
    walked = []
    real = dsl._reads

    def counted(node):
        walked.append(node)
        return real(node)

    monkeypatch.setattr(dsl, "_reads", counted)
    second = dsl.evaluate(e, 0.0, y, yb, z, zb, n=1, d=2)
    assert e.free_variables == {"y", "z", "ybar"}
    assert not walked
    assert _same_bits(second, first)
    # the cached set survives pickling, and the copy still evaluates
    copy = pickle.loads(pickle.dumps(e))
    assert copy.free_variables == e.free_variables
    assert not walked
    assert _same_bits(dsl.evaluate(copy, 0.0, y, yb, z, zb, n=1, d=2), first)


def test_row_dot_into_a_buffer_matches_numpy_at_every_width(rng):
    for width in range(1, 11):
        a = rng.standard_normal((101, width))
        b = rng.standard_normal((101, width))
        out = np.empty(101)
        for x, y in ((a, b), (a[::-1], np.asfortranarray(b))):
            got = core.row_dot(x, y, out=out)
            assert got is out
            assert _same_bits(got, np.sum(x * y, axis=1))


def test_single_expression_evaluated_once_per_call(rng, monkeypatch):
    e = dsl.parse("1 + norm2(z)")
    calls = []
    real = dsl.row_norm

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(dsl, "row_norm", counted)
    y, yb, z, zb = _driver_inputs(rng, 50, 2, 2)
    out = dsl.evaluate(e, 0.0, y, yb, z, zb, n=2, d=2)
    assert len(calls) == 1
    np.testing.assert_array_equal(out[:, 0], out[:, 1])
    assert _same_bits(out, reference_evaluate(e, 0.0, y, yb, z, zb, n=2, d=2))


LATE_SETS = [
    frozenset(c) for k in range(len(dsl.GENERATOR_VARS) + 1)
    for c in combinations(dsl.GENERATOR_VARS, k)
]


def _staged(e, late, s, y, yb, z, zb, n, d):
    """Bind the slots outside ``late``, then call with the late ones; a
    second call on the same binding returns the same bits."""
    slots = {"s": s, "y": y, "ybar": yb, "z": z, "zbar": zb}
    program = dsl.Staged(e, late, n=n, d=d)
    program.bind(**{k: v for k, v in slots.items() if k not in late})
    first = program(**{k: v for k, v in slots.items() if k in late}).copy()
    again = program(**{k: v for k, v in slots.items() if k in late})
    assert _same_bits(again, first)
    return again


def _staged_first(expr, late):
    """The subtrees a program staged for ``late`` runs before its call, in
    the order it runs them: the maximal ones that read no slot, folded when
    it is built, then the maximal ones that read slots but no late one,
    evaluated by ``bind``, each group in tree order."""
    constant, bound = [], []

    def walk(node, in_bound):
        if isinstance(node, (Num, Var)):
            return
        reads = dsl._reads(node)
        if not reads:
            constant.append(node)
            return
        if not in_bound and not reads & late:
            bound.append(node)
            in_bound = True
        for child in dsl._children(node):
            walk(child, in_bound)

    for c in expr.components:
        walk(c, False)
    return constant + bound


def _outcome(fn):
    """The value of ``fn()``, or the type and text of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except (EvalDomainError, DimensionError) as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, np.ndarray) and _same_bits(got, want)


@pytest.mark.parametrize("text,n,d", COMPILED_CASES)
@pytest.mark.parametrize("P", [1, 3, 257])
def test_staged_matches_reference_for_every_late_set(rng, text, n, d, P):
    e = dsl.parse(text)
    y, yb, z, zb = _driver_inputs(rng, P, n, d)
    for s in (0.3, rng.uniform(0, 1, P)):
        want = reference_evaluate(e, s, y, yb, z, zb, n=n, d=d)
        for late in LATE_SETS:
            assert _same_bits(_staged(e, late, s, y, yb, z, zb, n, d), want), late


@settings(max_examples=60, deadline=None)
@given(GENERATED_TEXTS, st.sampled_from([1, 3, 257]), st.integers(0, 2**32 - 1))
@example("abs(((y / y) + (ybar / 0.0)))", 1, 0)
@example("dot((y / y), (ybar / norm2(z)))", 1, 0)
@example("((ybar / 0.0) + (y * (s / 0.0)))", 1, 0)
def test_staged_generated_matches_reference(text, P, seed):
    # every operation, every set of late slots: the staged value is the
    # reference's bit for bit, or both raise the same error, the first in
    # staged order (constant subtrees, then bound ones, then the rest)
    e = dsl.parse(text)
    rng = np.random.default_rng(seed)
    y, yb, z, zb = _driver_inputs(rng, P, 1, 1)
    s = rng.uniform(0, 1, P)
    for late in LATE_SETS:
        first = _staged_first(e, late)
        want = _outcome(lambda: reference_evaluate(e, s, y, yb, z, zb, n=1, d=1, first=first))
        got = _outcome(lambda: _staged(e, late, s, y, yb, z, zb, 1, 1))
        assert _same_outcome(got, want), late


def test_staged_instances_share_no_buffer(rng):
    # two live programs of one expression, called in turn on different
    # inputs, each keep their own output
    e = dsl.parse("1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))")
    a, b = dsl.Staged(e, ("y",)), dsl.Staged(e, ("y",))
    ins_a, ins_b = _driver_inputs(rng, 50, 1, 1), _driver_inputs(rng, 50, 1, 1)
    a.bind(s=0.1, ybar=ins_a[1], z=ins_a[2], zbar=ins_a[3])
    b.bind(s=0.7, ybar=ins_b[1], z=ins_b[2], zbar=ins_b[3])
    out_a = a(y=ins_a[0])
    out_b = b(y=ins_b[0])
    assert not np.shares_memory(out_a, out_b)
    assert _same_bits(out_a, reference_evaluate(e, 0.1, *ins_a, n=1, d=1))
    assert _same_bits(out_b, reference_evaluate(e, 0.7, *ins_b, n=1, d=1))
    # a call returns the same buffer, overwritten
    assert a(y=ins_b[0]) is out_a


def test_pickled_expression_still_stages(rng):
    e = dsl.parse("abs(y) + dot(z, zbar) / (1 + norm2(zbar))")
    y, yb, z, zb = _driver_inputs(rng, 9, 2, 2)
    first = _staged(e, {"y"}, 0.2, y, yb, z, zb, 2, 2).copy()
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e
    assert _same_bits(_staged(copy, {"y"}, 0.2, y, yb, z, zb, 2, 2), first)


# each text runs at n equal to its component count, so every component is
# a scalar: y / (ybar - ybar) is one component wide at n = 1
DOMAIN_CASES = [
    ("1 + y / (ybar - ybar)", "division by zero", "y / (ybar - ybar)", 7),
    ("2 + (y - 3)^0.5", "fractional power of a negative base", "(y - 3)^0.5", 12),
    ("exp(1000 * s) ; s", "non-finite value", "exp(1000 * s) ; s", 1),
]


@pytest.mark.parametrize("text,message,node_text,column", DOMAIN_CASES)
def test_domain_errors_keep_message_and_position(text, message, node_text, column):
    e = dsl.parse(text)
    n = len(e.components)
    y = np.ones((4, n))
    z = np.zeros((4, 2, n))
    with np.errstate(over="ignore"), pytest.raises(EvalDomainError) as got:
        dsl.evaluate(e, 1.0, y, np.ones(n), z, z, n=n, d=2)
    with np.errstate(over="ignore"), pytest.raises(EvalDomainError) as want:
        reference_evaluate(e, 1.0, y, np.ones(n), z, z, n=n, d=2)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"{message} in '{node_text}' (column {column})"
    assert (got.value.node_text, got.value.column) == (node_text, column)


@pytest.mark.parametrize("text,message,node_text,column", DOMAIN_CASES)
@pytest.mark.parametrize("late", LATE_SETS, ids=lambda late: "+".join(sorted(late)) or "none")
def test_domain_errors_are_the_same_bound_or_late(text, message, node_text, column, late):
    # a check inside a bound subtree raises at bind time, any other at
    # call time, with the same message, node text and column
    e = dsl.parse(text)
    n = len(e.components)
    y = np.ones((4, n))
    z = np.zeros((4, 2, n))
    slots = {"s": 1.0, "y": y, "ybar": np.ones(n), "z": z, "zbar": z}
    program = dsl.Staged(e, late, n=n, d=2)
    bind = lambda: program.bind(**{k: v for k, v in slots.items() if k not in late})
    call = lambda: program(**{k: v for k, v in slots.items() if k in late})
    at_bind = message != "non-finite value" and not dsl.parse(node_text).free_variables & late
    with np.errstate(over="ignore"):
        if not at_bind:
            bind()
        with pytest.raises(EvalDomainError) as got:
            bind() if at_bind else call()
    assert str(got.value) == f"{message} in '{node_text}' (column {column})"
    assert (got.value.node_text, got.value.column) == (node_text, column)


@pytest.mark.parametrize("text,message,node_text,column", [
    ("norm2(y / (ybar - ybar))", "division by zero", "y / (ybar - ybar)", 9),
    ("2 + norm2((y - 3)^0.5)", "fractional power of a negative base", "(y - 3)^0.5", 18),
])
def test_domain_errors_in_vector_operands_keep_message_and_position(
    text, message, node_text, column
):
    # two-component operands inside a scalar component, at n = 2: the same
    # error from the reference and from every staging
    e = dsl.parse(text)
    y, z = np.ones((4, 2)), np.zeros((4, 2, 2))
    slots = {"s": 1.0, "y": y, "ybar": np.ones(2), "z": z, "zbar": z}
    with pytest.raises(EvalDomainError) as want:
        reference_evaluate(e, *slots.values(), n=2, d=2)
    assert str(want.value) == f"{message} in '{node_text}' (column {column})"
    for late in LATE_SETS:
        with pytest.raises(EvalDomainError) as got:
            _staged(e, late, *slots.values(), 2, 2)
        assert str(got.value) == str(want.value), late


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(RAW_TEXTS, st.sampled_from([1, 2]), st.sampled_from([1, 2]))
@example("y^y", 1, 1)
@example("(1 + abs(y))^abs(sin(norm2(z)))", 1, 1)
def test_acceptance_does_not_depend_on_the_path_count(text, n, d):
    # the vector slots read raw, and exponents that read slots: a text is
    # refused when its plan is built, or evaluates at 1 and at 3 paths
    # without a shape error
    e = dsl.parse(text)
    try:
        dsl.Staged(e, ("y",), n=n, d=d)
    except DimensionError:
        refused = True
    else:
        refused = False
    for P in (1, 3):
        ins = _driver_inputs(np.random.default_rng(P), P, n, d)
        got = _outcome(lambda: dsl.evaluate(e, 0.3, *ins, n=n, d=d))
        assert (isinstance(got, tuple) and got[0] is DimensionError) == refused, P


# ---------------------------------------------------------------------------
# the y-derivative of a program with y late
# ---------------------------------------------------------------------------


def _values_and_slopes(program, y, dy_step):
    """Copies of the program's values at ``y``, ``y +- dy_step`` and ``y
    +- dy_step / 2``, and of its derivatives there."""
    got = {}
    for k, at in (("mid", y), ("up", y + dy_step), ("down", y - dy_step),
                  ("half up", y + dy_step / 2), ("half down", y - dy_step / 2)):
        got[k] = program(y=at).copy(), program.dy.copy()
    return got


# examples whose stencil spans many periods, with their slopes as the chain
# rule forms them: d(y / c) = 1 / c, times cos(y / c), negated
_C = 4.7373770489785073e-272
_ANALYTIC_SLOPES = {
    f"-(sin((y / {_C!r})))": lambda y: -(np.cos(y / _C) * (1 / _C)),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(GENERATED_TEXTS.map(lambda text: text.replace("ybar", "y")), st.integers(0, 2**32 - 1))
@example("(0.0)^-1", 0)
@example(f"-(sin((y / {_C!r})))", 0)
@example("(1.0 / (2.0 + abs(y)))", 0)  # quotients whose divisor reads y
@example("((y * y) / (3.0 + abs(y)))", 0)
def test_y_derivative_matches_central_difference(text, seed):
    # at each path away from kinks and poles, where the derivative barely
    # moves over the difference's stencil and the central differences at
    # steps h and h/2 agree (the difference is in its asymptotic range, not
    # aliasing an oscillation far finer than its stencil), it is the
    # central difference; the ybar leaves read y, so that most expressions
    # read it
    e = dsl.parse(text)
    rng = np.random.default_rng(seed)
    y, yb, z, zb = _driver_inputs(rng, 257, 1, 1)
    h = 1e-6
    try:
        program = dsl.Staged(e, ("y",))  # a constant subtree may raise here
        program.bind(s=rng.uniform(0, 1, 257), ybar=yb, z=z, zbar=zb)
        with np.errstate(all="ignore"):
            if "y" not in e.free_variables:
                program(y=y)
                assert program.dy is None
                return
            got = _values_and_slopes(program, y, h)
    except (EvalDomainError, DimensionError):
        return
    (f, slope), (f_up, slope_up), (f_down, slope_down) = got["mid"], got["up"], got["down"]
    if text in _ANALYTIC_SLOPES:
        assert _same_bits(slope, _ANALYTIC_SLOPES[text](y))
    with np.errstate(all="ignore"):
        central = (f_up - f_down) / (2 * h)
        central_half = (got["half up"][0] - got["half down"][0]) / h
        scale = np.maximum(1.0, np.abs(slope))
        smooth = np.isfinite(slope) & (np.abs(slope_up - slope_down) <= 1e-3 * scale)
        smooth &= np.abs(f) < 1e6
        smooth &= np.abs(central - central_half) <= 1e-5 * np.maximum(1.0, np.abs(central))
    assert np.all(np.abs(central - slope)[smooth] <= 1e-4 * scale[smooth])


@pytest.mark.parametrize("text,n,d,tangent", [
    ("1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))", 1, 1, True),
    ("norm2(y) + dot(y, ybar) * abs(y)", 1, 3, True),
    ("y * z", 1, 1, True),
    ("norm2(y * z)", 1, 2, False),  # the norm of a y-reading vector
    ("abs(y)", 2, 1, False),        # n = 2: the norm of y mixes its components
    ("dot(y, ybar) ; s", 2, 1, False),
    ("s + norm2(z)", 1, 2, False),  # reads no y
])
def test_programs_with_y_late_give_a_derivative_where_there_is_a_rule(text, n, d, tangent):
    program = dsl.Staged(dsl.parse(text), ("y",), n=n, d=d)
    slots = {"s": 0.4, "ybar": np.full(n, 0.3), "z": np.full((d, n), 0.2),
             "zbar": np.full((d, n), -0.1)}
    program.bind(**{k: v for k, v in slots.items() if k in program._plan.reads_early})
    program(y=np.linspace(0.5, 1, n))
    assert (program.dy is not None) == tangent
    # other late sets never carry one
    other = dsl.Staged(dsl.parse(text), ("y", "ybar"), n=n, d=d)
    assert other.dy is None


@pytest.mark.parametrize("text", ["min(y, z) ; s", "y * z - max(z, y) ; s"])
def test_width_mismatch_raises_the_same_error_with_a_derivative(text):
    # the width walk refuses the program when it is built, before any
    # value, for y late as for every slot late
    e = dsl.parse(text)
    y, z = np.ones((3, 2)), np.ones((3, 2, 2))
    with pytest.raises(DimensionError) as got:
        dsl.Staged(e, ("y",), n=2, d=2)
    with pytest.raises(DimensionError) as want:
        dsl.evaluate(e, 0.0, y, y, z, z[0], n=2, d=2)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("component mismatch 2 vs 4 in ")


def _staged_y(text):
    return dsl.Staged(dsl.parse(text), ("y",))


def _bound_y(text):
    program = _staged_y(text)
    program.bind(s=0.0)
    return program


def _bound_z(text, paths):
    program = _staged_y(text)
    program.bind(s=0.0, z=np.ones(paths))
    return program


# refusals with the call that raises each: the shape rules, and the slot
# protocol of a staged program at each of its stages
REFUSALS = [
    (lambda: dsl.evaluate(dsl.parse("abs(y)^z"), 0.0, 1.0, 0.0, np.ones(3), 0.0),
     DimensionError, "exponent must be a constant scalar in 'abs(y)^z'"),
    # an exponent that reads a slot is refused at one path too, and by a
    # program before it binds
    (lambda: dsl.evaluate(dsl.parse("y^y"), 0.0, 2.0, 0.0, 0.0, 0.0),
     DimensionError, "exponent must be a constant scalar in 'y^y'"),
    (lambda: _staged_y("2^y"), DimensionError, "exponent must be a constant scalar in '2^y'"),
    (lambda: dsl.Staged(dsl.parse("y"), ("y",), n=2),
     DimensionError, "component 1 is 2-dimensional, expected scalar: 'y'"),
    # slots of different path counts, neither of them 1
    (lambda: dsl.evaluate(dsl.parse("y + norm2(z)"), 0.0, np.ones(3), 0.0, np.ones(2), 0.0),
     DimensionError, "z: 2 paths given, expected 1 or 3"),
    (lambda: _bound_z("y + norm2(z)", 4)(y=np.ones(3)),
     DimensionError, "y: 3 paths given, expected 1 or 4"),
    (lambda: _staged_y("y").bind(s=np.ones(2), z=np.ones(3)),
     DimensionError, "z: 3 paths given, expected 1 or 2"),
    (lambda: dsl.evaluate(dsl.parse("dot(y, z)"), 0.0, 1.0, 0.0, np.ones(2), np.zeros(2),
                          n=1, d=2),
     DimensionError, "dot of 1- and 2-component vectors"),
    (lambda: dsl.Staged(dsl.parse("y"), ("q",)), InvalidInput, "unknown slot(s) ['q']"),
    (lambda: _staged_y("y + s").bind(s=0.0, y=1.0),
     InvalidInput, "late slot(s) ['y'] given to bind"),
    (lambda: _staged_y("y + ybar + s").bind(s=0.0),
     InvalidInput, "bind needs the slot(s) ['ybar']"),
    (lambda: _bound_y("y + s")(y=1.0, s=0.0), InvalidInput, "slot(s) ['s'] are not late"),
    (lambda: _bound_y("y + s")(), InvalidInput, "call needs the slot(s) ['y']"),
    (lambda: dsl.Staged(dsl.parse("w", dsl.TERMINAL_VARS), ()),
     InvalidInput, "not a driver expression, uses ['w']"),
    (lambda: dsl.evaluate_terminal(dsl.parse("y"), 0.0),
     InvalidInput, "not a terminal expression, uses ['y']"),
    (lambda: dsl.evaluate_terminal(dsl.parse("w1 + w3", dsl.TERMINAL_VARS), np.zeros(2), d=2),
     InvalidInput, "terminal reads ['w3'], beyond the d = 2 coordinates w1 .. w2"),
]


@pytest.mark.parametrize("call,error,message", REFUSALS, ids=[
    "exponent", "exponent-one-path", "exponent-at-build", "component-width", "paths-at-call",
    "paths-bound-and-late", "paths-at-bind", "dot-widths", "unknown-slot", "late-at-bind",
    "bind-missing", "not-late-at-call", "call-missing", "not-a-driver", "not-a-terminal",
    "terminal-beyond-d"])
def test_refusals_keep_their_type_and_message(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is error
    assert str(got.value) == message


def test_abs_min_and_max_slopes_at_their_kinks():
    # abs at 0 gives 0; min and max take the chosen operand's derivative
    program = dsl.Staged(dsl.parse("abs(y) + min(y, 2*y) + max(3*y, -y)"), ("y",))
    program(y=np.array([[-1.0], [0.0], [-0.0], [2.0]]))
    assert program.dy[:, 0].tolist() == [-1.0 + 2.0 - 1.0, 0.0 + 1.0 + 3.0,
                                         0.0 + 1.0 + 3.0, 1.0 + 1.0 + 3.0]


# ---------------------------------------------------------------------------
# the split of a sum into the terms that read given slots and the rest
# ---------------------------------------------------------------------------


def _shipped_generators():
    from pathlib import Path

    exprs = _examples()
    configs = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(configs.glob("*.cfg")):
        for line in path.read_text().splitlines():
            key, _, text = line.partition("=")
            if key.strip() in ("f", "f1", "f2"):
                exprs.append(dsl.parse(text))
    return exprs


SPLIT_SLOTS = [("y", "ybar", "zbar"), ("y",), ("z",), ("s", "z"), ("ybar", "zbar")]


def _check_split(e, slots, rng):
    """The parts hold the whole's terms, and sum to it within rounding."""
    reading, regrouped = e.split(slots)
    ins = _driver_inputs(rng, 33, 1, 1)
    for c, part, whole in zip(e.components, reading.components, regrouped.components):
        terms = dsl._terms(c)
        hit = [t for t in terms if dsl._reads(t[1]) & set(slots)]
        if not hit or len(hit) == len(terms):
            assert part is c and whole is c
            continue
        assert dsl._terms(part) == hit
        assert sorted(map(repr, dsl._terms(whole))) == sorted(map(repr, terms))
        rest = whole.left
        assert dsl._terms(rest) == [t for t in terms if t not in hit]
        value = lambda node: dsl.evaluate(dsl.GeneratorExpr((node,)), 0.3, *ins)
        want = value(c)
        scale = np.maximum(1.0, sum(np.abs(value(t)) for _, t in terms))
        assert np.all(np.abs(value(whole) - want) <= 1e-14 * scale)
        assert np.all(np.abs(value(rest) + value(part) - want) <= 1e-14 * scale)


@pytest.mark.parametrize("slots", SPLIT_SLOTS, ids="+".join)
def test_split_of_every_shipped_generator(rng, slots):
    for e in _shipped_generators():
        _check_split(e, slots, rng)
    reading, _ = example_22().f.split(("y", "ybar", "zbar"))
    assert dsl.to_text(reading) == "abs(y) + abs(ybar) + abs(sin(norm2(zbar)))"


def test_split_counts_a_difference_as_a_sum_of_a_negated_term():
    reading, regrouped = dsl.parse("1 - abs(y) + s - (ybar - 2)").split(("y", "ybar"))
    assert dsl.to_text(reading) == "-abs(y) - ybar"
    assert dsl.to_text(regrouped) == "1 + s + 2 + (-abs(y) - ybar)"
    # not a sum, or no term on one side: the component is both parts
    e = dsl.parse("abs(y) * s ; 1 + s ; abs(y) - ybar")
    reading, regrouped = e.split(("y", "ybar"))
    assert reading.components == regrouped.components == e.components


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), GENERATED_TEXTS), min_size=1, max_size=5),
       st.sampled_from(SPLIT_SLOTS), st.integers(0, 2**32 - 1))
def test_split_of_generated_sums(terms, slots, seed):
    text = " ".join(f"{sign} ({t})" for sign, t in terms).removeprefix("+ ")
    try:
        with np.errstate(all="ignore"):
            _check_split(dsl.parse(text), slots, np.random.default_rng(seed))
    except (EvalDomainError, DimensionError):
        pass
