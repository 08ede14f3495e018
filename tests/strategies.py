"""Hypothesis strategies shared by test modules: driver-language texts."""

from hypothesis import strategies as st

# the leaves of a scalar-valued driver text: every slot, and constants
LEAVES = st.sampled_from(["y", "ybar", "s", "norm2(z)", "norm2(zbar)"]) | st.floats(
    min_value=0.0, max_value=9.0
).map(lambda v: f"{v!r}")


def extend(inner):
    """Texts one operation deeper than those of ``inner``: every operation
    of the language over them."""
    return (
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        | inner.map(lambda s: f"sin({s})")
        | inner.map(lambda s: f"abs({s})")
        | inner.map(lambda s: f"-({s})")
        | st.tuples(inner, st.sampled_from(["2", "3", "0.5", "-1"])).map(
            lambda t: f"({t[0]})^{t[1]}"
        )
        | st.tuples(st.sampled_from(["dot", "min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        )
    )


# scalar-valued driver texts over every slot and every operation
GENERATED_TEXTS = st.recursive(LEAVES, extend, max_leaves=12)


# texts over the vector slots read raw, at their own widths, whose
# exponents may read slots: at n or d above 1 many are refused by the
# shape rules
RAW_TEXTS = st.recursive(
    st.sampled_from(["y", "ybar", "z", "zbar", "s", "2", "0.5"]),
    lambda inner: extend(inner)
    | st.tuples(inner, inner).map(lambda t: f"({t[0]})^({t[1]})"),
    max_leaves=6,
)


def texts_of_depth(depth: int):
    """Generated texts nesting at most ``depth`` operations."""
    texts = LEAVES
    for _ in range(depth):
        texts = texts | extend(texts)
    return texts
