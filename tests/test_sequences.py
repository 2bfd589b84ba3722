import pytest
from hypothesis import given, strategies as st

from lrperc.sequences import (
    SequenceSpec, constant, explicit, harmonic, parse_sequence,
    powerlaw, signed_ranges, truncate,
)


# -- eval ---------------------------------------------------------------------

def test_harmonic_values():
    h = harmonic()
    assert h.eval(1) == 1.0
    assert h.eval(4) == 0.25


def test_powerlaw_clamped_at_one():
    assert powerlaw(1.0, 2.0).eval(1) == 1.0
    assert powerlaw(1.0, 2.0).eval(4) == 0.5


def test_eval_rejects_index_zero():
    with pytest.raises(ValueError):
        harmonic().eval(0)
    with pytest.raises(ValueError):
        constant(0.5).eval(-3)


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("mystery")
    with pytest.raises(ValueError):
        powerlaw(-1.0, 1.0)
    with pytest.raises(ValueError):
        constant(1.5)
    with pytest.raises(ValueError):
        explicit([0.5, 2.0])


@pytest.mark.parametrize("text", ["powerlaw:1,nan", "powerlaw:nan,0.5",
                                  "powerlaw:1,inf", "powerlaw:inf,0.5"])
def test_powerlaw_rejects_non_finite_parameters(text):
    """min(1, nan) is 1, so a nan parameter would open every bond."""
    with pytest.raises(ValueError, match="finite"):
        parse_sequence(text)


# -- truncation ---------------------------------------------------------------

def test_truncate_harmonic():
    t = truncate(harmonic(), 3)
    assert t.terms(5) == [1.0, 0.5, 1.0 / 3.0, 0.0, 0.0]
    # witness searches scan the ranges of a truncation in this order
    assert list(signed_ranges(3)) == [1, -1, 2, -2, 3, -3]


def test_truncate_at_zero_is_identically_zero():
    t = truncate(harmonic(), 0)
    assert t.terms(10) == [0.0] * 10


def test_truncate_explicit_list():
    t = truncate(explicit([0.9, 0.8, 0.7]), 2)
    assert t.terms(4) == [0.9, 0.8, 0.0, 0.0]


def test_range_zero_term_is_pinned_to_zero():
    assert truncate(constant(1.0), 5).term(0) == 0.0
    with pytest.raises(ValueError):
        truncate(harmonic(), 5).term(-1)


_specs = st.one_of(
    st.just(harmonic()),
    st.builds(powerlaw, st.floats(0.1, 4.0), st.floats(0.01, 3.0)),
    st.builds(constant, st.floats(0.0, 1.0)),
    st.builds(explicit, st.lists(st.floats(0.0, 1.0), max_size=6)),
)


@given(_specs, st.integers(1, 50))
def test_eval_always_a_probability(spec, i):
    assert 0.0 <= spec.eval(i) <= 1.0


@given(_specs, st.integers(0, 10), st.integers(0, 10), st.integers(1, 15))
def test_truncation_idempotent_in_effect(spec, k, extra, n):
    """Truncating at k' >= k leaves the k-truncation's terms unchanged."""
    small, large = truncate(spec, k), truncate(spec, k + extra)
    assert all(small.term(i) == (large.term(i) if i <= k else 0.0)
               for i in range(0, n + 1))


# -- parsing ------------------------------------------------------------------

def test_parse_harmonic():
    assert parse_sequence("harmonic") == harmonic()


def test_parse_powerlaw():
    assert parse_sequence("powerlaw:1.5,0.3") == powerlaw(1.5, 0.3)


def test_parse_const_and_list():
    assert parse_sequence("const:0.25") == constant(0.25)
    assert parse_sequence("list:0.9,0.8,0.7") == explicit([0.9, 0.8, 0.7])


@pytest.mark.parametrize("text,token", [
    ("powerlaw:1.5", "1.5"),
    ("powerlaw:a,b", "a,b"),
    ("const:maybe", "maybe"),
    ("list:0.5,x", "x"),
    ("geometric:0.5", "geometric"),
    ("nonsense", "nonsense"),
])
def test_parse_errors_name_the_offending_token(text, token):
    with pytest.raises(ValueError, match=token):
        parse_sequence(text)
