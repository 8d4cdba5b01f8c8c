"""The parser against its earlier form, ``reference_parser``, on drawn
texts: the same tree, or the same error at the same position."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_parser
from incentive_audit.expr import Const, ParseError, parse

NAMES = ["u1", "u2", "u3"]
NUMBERS = ["0", "1", "2", "3", "07", "10", "999", "0.5", ".25", "3.000"]
IDENTS = ["u1", "u2", "u3", "abs", "x"]
#: exponents kept small, so that a drawn tower of constants stays within
#: the digit limit the reference does not have
EXPONENTS = ["0", "1", "2", "3", "1.5", "u1"]
STRAY = ["$", "é", ".", "(", ")", "^", "+", "*", "/", "-", "u2", "2"]
SPACES = ["", " ", "  ", "\t", "\n"]


def _grown(inner):
    chain = st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=4)
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: [*t[0], t[1], *t[2]]),
        inner.map(lambda t: ["(", *t, ")"]),
        inner.map(lambda t: ["abs", "(", *t, ")"]),
        inner.map(lambda t: ["-", *t]),
        st.tuples(inner, chain).map(
            lambda t: ["(", *t[0], ")"] + [x for e in t[1] for x in ("^", e)]),
        st.tuples(inner, chain).map(
            lambda t: [*t[0]] + [x for e in t[1] for x in ("^", e)]),
    )


@st.composite
def texts(draw, atoms):
    """Tokens of the grammar over ``atoms``, a stray token put
    anywhere, joined by drawn whitespace, leading and trailing included."""
    tokens = draw(st.recursive(st.sampled_from(atoms).map(lambda a: [a]),
                               _grown, max_leaves=8))
    for at, stray in draw(st.lists(st.tuples(st.integers(0, 40),
                                             st.sampled_from(STRAY)),
                                   max_size=1)):
        tokens.insert(at % (len(tokens) + 1), stray)
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=len(tokens) + 1,
                           max_size=len(tokens) + 1))
    return "".join(s + t for s, t in zip(spaces, tokens + [""]))


@settings(max_examples=200, deadline=None)
@given(texts(NUMBERS + IDENTS), st.integers(0, 3))
@example("u1 + 2 \n", 1)
@example("\t u1*u2 ", 2)
@example("u3 - abs(u2)*u1", 3)
@example("u1 $ + ", 1)
@example("2*-u1 - -u1^2 + u1/2/3 + u1^2^3", 1)
@example("u1 / (u1 + 1 - u1)", 1)
@example("u1 / (u1 - u1)", 1)
@example("u1 / u1", 1)
def test_same_tree_or_error_as_reference(text, count):
    names = NAMES[:count]
    try:
        got = parse(text, names)
    except ParseError as exc:
        # the reference would compute the refused power
        assume(not exc.message.startswith("constant power"))
        with pytest.raises(ParseError) as ref:
            reference_parser.parse(text, names)
        assert type(ref.value) is type(exc)
        assert (ref.value.message, ref.value.position) == (exc.message,
                                                           exc.position)
        assert str(ref.value) == str(exc)
    else:
        assert reference_parser.parse(text, names) == got


@settings(max_examples=100, deadline=None)
@given(texts(NUMBERS + ["abs"]))
@example("10^400/10^400")
@example("abs(-3)^2 - 1/(2 - 5)")
def test_text_without_names_is_a_constant(text):
    # a bound is read as this Const's value
    try:
        got = parse(text, [])
    except ParseError:
        return
    assert type(got) is Const
