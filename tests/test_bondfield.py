import numpy as np
import pytest
from hypothesis import given, strategies as st

from lrperc.bondfield import TAG_G, BondField, BondId
from lrperc.stats import wilson_interval


def test_is_open_deterministic():
    fld = BondField(42)
    b = BondId.oriented((3, -1), 7, 1, 2)
    assert fld.is_open(b, 0.5) == fld.is_open(b, 0.5)
    assert fld.uniform(b) == fld.uniform(b)


def test_probability_extremes():
    fld = BondField(1)
    b = BondId.oriented((0, 0), 0, 1, 1)
    assert fld.is_open(b, 1.0)
    assert not fld.is_open(b, 0.0)


def test_horizontal_canonicalization():
    """<u, v> and <v, u> are the same bond."""
    a = BondId.star_horizontal((2, 5), 3, 1, 4)    # (2,5) -> (6,5)
    b = BondId.star_horizontal((6, 5), 3, 1, -4)   # (6,5) -> (2,5)
    assert a == b


def test_zero_displacement_rejected():
    with pytest.raises(ValueError):
        BondId.oriented((0, 0), 0, 1, 0)
    with pytest.raises(ValueError):
        BondId.star_horizontal((0, 0), 0, 1, 0)


def test_distinct_ids_distinct_uniforms():
    fld = BondField(7)
    ids = [BondId.oriented((x, y), n, ax, d)
           for x in range(-2, 3) for y in range(-2, 3)
           for n in range(3) for ax in (1, 2) for d in (-2, -1, 1, 2)]
    us = {fld.uniform(b) for b in ids}
    assert len(us) == len(ids)


def test_derive_replica_deterministic_and_distinct():
    fld = BondField(5)
    b = BondId.oriented((0, 0), 0, 1, 1)
    assert fld.derive_replica(3).uniform(b) == fld.derive_replica(3).uniform(b)
    assert fld.derive_replica(0).uniform(b) != fld.derive_replica(1).uniform(b)
    with pytest.raises(ValueError):
        fld.derive_replica(-1)


def test_batched_derive_replica_matches_scalar():
    """A field derived from an index array reads, element by element, the
    stream of the field derived from each index."""
    root = BondField(8)
    reps = np.array([[0, 1, 2], [7, 1000, 2**40]])
    batch = root.derive_replica(reps[:, :, None]).uniforms(
        [np.full((1, 1, 1), TAG_G), np.arange(4)[None, None, :]])  # (2, 3, 4)
    assert batch.shape == (2, 3, 4)
    for (i, j), r in np.ndenumerate(reps):
        fld = root.derive_replica(int(r))
        for w in range(4):
            assert batch[i, j, w] == fld.uniform_words((TAG_G, w))
    with pytest.raises(ValueError):
        root.derive_replica(np.array([3, -1]))


def test_vectorized_matches_scalar():
    fld = BondField(11)
    xs = np.arange(-50, 50)
    cols = [np.full(100, TAG_G), np.full(100, 2), xs, np.zeros(100, dtype=np.int64),
            np.ones(100, dtype=np.int64), np.full(100, 3)]
    batch = fld.uniforms(cols)
    for j in (0, 17, 99):
        b = BondId.oriented((int(xs[j]), 0), 2, 1, 3)
        assert batch[j] == fld.uniform(b)


def test_marginal_frequency_one_million_bonds():
    """Range-3 bonds under a harmonic sequence open with frequency 1/3."""
    n = 1_000_000
    fld = BondField(2024)
    xs = np.arange(n, dtype=np.int64)
    cols = [np.full(1, TAG_G), np.zeros(1, dtype=np.int64), xs,
            np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), np.full(1, 3)]
    hits = int((fld.uniforms(cols) < 1.0 / 3.0).sum())
    lo, hi = wilson_interval(hits, n, z=3.0)
    assert lo <= 1.0 / 3.0 <= hi


def test_replica_independence_cross_correlation():
    """Joint open frequency over shared bonds factorizes across replicas."""
    n = 100_000
    root = BondField(99)
    xs = np.arange(n, dtype=np.int64)
    cols = [np.full(1, TAG_G), np.zeros(1, dtype=np.int64), xs,
            np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)]
    a = root.derive_replica(0).uniforms(cols) < 0.5
    b = root.derive_replica(1).uniforms(cols) < 0.5
    both = int((a & b).sum())
    lo, hi = wilson_interval(both, n, z=3.0)
    assert lo <= 0.25 <= hi
    # marginals preserved as well
    for ind in (a, b):
        lo, hi = wilson_interval(int(ind.sum()), n, z=3.0)
        assert lo <= 0.5 <= hi


@given(st.lists(st.integers(-2**31 + 1, 2**31 - 1), min_size=1, max_size=6),
       st.integers(0, 2**32))
def test_uniform_in_unit_interval(words, seed):
    u = BondField(seed).uniform_words(words)
    assert 0.0 <= u < 1.0


@given(st.integers(0, 2**32), st.integers(-1000, 1000),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_monotone_coupling_in_probability(seed, x, p1, p2):
    """The same bond open at probability p stays open at any p' >= p."""
    fld = BondField(seed)
    b = BondId.oriented((x, 0), 0, 1, 1)
    lo, hi = min(p1, p2), max(p1, p2)
    assert not fld.is_open(b, lo) or fld.is_open(b, hi)
