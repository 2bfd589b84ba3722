import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    with pytest.raises(ValueError):
        fld.derive_replica(2**63)
    with pytest.raises(ValueError):
        BondField(2**63)


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


def test_scalar_draw_on_batch_field_rejected():
    batch = BondField(8).derive_replica(np.arange(3))
    for draw in (lambda: batch.uniform_words((0, 1)),
                 lambda: batch.is_open(BondId.oriented((0, 0), 0, 1, 1), 0.5)):
        with pytest.raises(ValueError, match="single-replica"):
            draw()
    with pytest.raises(ValueError, match="single-replica"):
        BondField(8).derive_replica(np.array([3])).uniform_words(())


def test_vector_draw_on_single_replica_field_rejected():
    """Vector draws and the batch shape need a batch field: the root and a
    field derived from one index have neither."""
    root = BondField(8)
    for fld in (root, root.derive_replica(3), root.derive_replica(np.int64(3))):
        for draw in (lambda: fld.states([np.arange(3)]),
                     lambda: fld.states([]),
                     lambda: fld.uniforms([np.arange(3)]),
                     lambda: fld.open_mask([np.arange(3)], 0.5),
                     lambda: fld.prefix([TAG_G]),
                     lambda: fld.shape):
            with pytest.raises(ValueError, match="batch field"):
                draw()
    assert BondField(8).derive_replica(np.array([3])).shape == (1,)


def test_take_selects_a_batch_only():
    """`take` selects a batch from a batch field: an index array, a slice
    or a tuple of index arrays gives a batch that draws the streams of the
    replicas selected, and a scalar index, or a single-replica field, raises
    ValueError, where a field no path could draw from was made before."""
    root = BondField(8)
    batch = root.derive_replica(np.arange(4))
    grid = root.derive_replica(np.arange(6).reshape(2, 3))
    cols = [np.arange(3)[:, None]]
    assert np.array_equal(batch.take(np.array([2])).states(cols),
                          root.derive_replica(np.array([2])).states(cols))
    assert np.array_equal(grid.take((np.array([1]), np.array([2]))).states(cols),
                          root.derive_replica(np.array([5])).states(cols))
    assert batch.take(np.s_[:0]).shape == (0,)
    for take in (lambda: batch.take(2), lambda: batch.take(np.int64(2)),
                 lambda: grid.take((1, 2)), lambda: root.take(np.arange(2)),
                 lambda: root.derive_replica(3).take(np.arange(2))):
        with pytest.raises(ValueError, match="batch field"):
            take()


def test_vectorized_matches_scalar():
    root = BondField(11)
    xs = np.arange(-50, 50)
    cols = [np.full(100, TAG_G), np.full(100, 2), xs, np.zeros(100, dtype=np.int64),
            np.ones(100, dtype=np.int64), np.full(100, 3)]
    batch = root.derive_replica(np.array([4])).uniforms(cols)
    for j in (0, 17, 99):
        b = BondId.oriented((int(xs[j]), 0), 2, 1, 3)
        assert batch[j] == root.derive_replica(4).uniform(b)


def test_marginal_frequency_one_million_bonds():
    """Range-3 bonds under a harmonic sequence open with frequency 1/3."""
    n = 1_000_000
    fld = BondField(2024).derive_replica(np.array([0]))
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
    a = root.derive_replica(np.array([0])).uniforms(cols) < 0.5
    b = root.derive_replica(np.array([1])).uniforms(cols) < 0.5
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


# (seed, replica or None for the root field, id words, uniform * 2**53),
# recorded from the reference numpy implementation of the stream.  Replica
# 2**40 is the contact resample offset; words <= -2**31 wrap under the bias.
FROZEN = [
    (0, None, (0, 0, 0, 0, 1, 1), 2702670793407398),
    (2024, None, (0, 5, -3, 7, 2, -1), 5614712868473099),
    (12345, 0, (1, 4, 2, -2, 1, 3), 6923133689072297),
    (12345, 7, (2, 9, -1, 6), 3658263226133638),
    (12345, 2**40, (3, 10, 20), 8176295799315684),
    (12345, 2**40 + 3, (3, 10, 20), 6728655691326616),
    (99, 2**62, (0, 1, 1, 1, 2, 1), 6709724932929437),
    (-1, None, (3, 0, 0), 3237647337141841),
    (-2**40, 5, (0, 2, 3, 4, 1, -2), 3170334414459918),
    (-2**63, None, (1, 0, 0, 0, 1, 1), 6760236219115506),
    (2**63 - 1, None, (2, 3, 4, 5), 7256953791343968),
    (5, None, (), 3753723842338357),
    (5, 11, (), 6675999473747962),
    (7, None, (-2**31,), 6627362195703693),
    (7, 3, (-2**31 - 1, -2**40, 2**31 - 1), 6716984925828127),
    (7, None, (0, -2**63, 2**62, -5), 512848474643286),
]


def _field(seed, replica):
    fld = BondField(seed)
    return fld if replica is None else fld.derive_replica(replica)


def _batch_of_one(seed, replica):
    """`_field(seed, replica)` as a batch of one: the replica derived from a
    one-index array, or, since no run draws the root as a batch, the root's
    base held in a one-element array."""
    if replica is None:
        return BondField(seed, _base=np.array([BondField(seed)._base], dtype=np.uint64))
    return BondField(seed).derive_replica(np.array([replica]))


@pytest.mark.parametrize("seed, replica, words, bits", FROZEN)
def test_frozen_scalar_stream(seed, replica, words, bits):
    u = _field(seed, replica).uniform_words(words)
    assert u * 2**53 == bits


@pytest.mark.parametrize("seed, replica, words, bits", FROZEN)
def test_frozen_vector_stream(seed, replica, words, bits):
    """The same ids as element [0, 0] of a broadcast batch of one whose
    columns alternate between the two axes, and as element 0 of a replica
    batch."""
    cols = [np.array([w, w ^ 1]).reshape((2, 1) if j % 2 else (1, 2))
            for j, w in enumerate(words)]
    batch = _batch_of_one(seed, replica).uniforms(cols)
    assert batch.flat[0] * 2**53 == bits
    if replica is not None:
        reps = BondField(seed).derive_replica(np.arange(replica, replica + 3))
        batch = reps.uniforms([np.asarray(w)[None] for w in words])
        assert batch.shape == (3,) and batch[0] * 2**53 == bits


@given(st.integers(-2**63, 2**63 - 1), st.integers(0, 20),
       st.lists(st.integers(-2**40, 2**40), max_size=6))
def test_replica_batch_matches_derived_replica(seed, r, words):
    root = BondField(seed)
    batch = root.derive_replica(np.arange(21)).uniforms([np.asarray(w) for w in words])
    assert root.derive_replica(r).uniform_words(words) == batch[r]


@pytest.mark.parametrize("seed, replica, words, bits", [
    pytest.param(*f, id=f"{f[0]}-{f[1]}-words{i}-{f[3]}")  # the id of the row in FROZEN
    for i, f in enumerate(FROZEN) if f[1] is not None])
def test_frozen_stream_through_take_and_prefix(seed, replica, words, bits):
    """Replica selection and leading-word folding keep the frozen bits:
    `derive_replica(a).take(i)` reads `derive_replica(a[i])` for an index
    array i, and `prefix(words[:j])` followed by `words[j:]` reads
    `words`."""
    picked = BondField(seed).derive_replica(np.array([replica + 2, replica, replica + 1]))
    batch = picked.take(np.array([1, 1]))
    assert batch.shape == (2,)
    for j in range(len(words) + 1):
        rest = [np.asarray(w) for w in words[j:]]
        assert (batch.prefix(words[:j]).uniforms(rest) * 2**53 == bits).all()


@pytest.mark.parametrize("seed, replica, words, bits", [f for f in FROZEN if f[1] is not None])
def test_frozen_stream_through_concat(seed, replica, words, bits):
    """`concat` joins batch fields along their last axis and keeps every
    element's stream: a (2, 3) batch that folded the frozen id's first word
    (a (2, 1) batch where the id has none), joined after a (2, 2) batch of
    other streams, reads the frozen bits wherever a tuple `take` picks it."""
    reps = BondField(seed).derive_replica(np.full((2, 1), replica))
    j = min(1, len(words))
    target = reps.prefix([np.full(3, w) for w in words[:j]])
    joined = BondField.concat([reps.prefix([np.arange(2)]), target])
    assert joined.shape == (2, 2 + (3 if j else 1))
    picked = joined.take((np.array([0, 1, 1]), np.array([2, 2, -1])))
    assert (picked.uniforms([np.asarray(w) for w in words[j:]]) * 2**53 == bits).all()


# the low 11 bits of each FROZEN id's hash state, which `uniforms` drops
FROZEN_LOW = [1400, 1136, 1495, 1970, 863, 1549, 1091, 1113,
              1193, 313, 957, 1295, 964, 338, 190, 1842]


_FROZEN_STATES = [pytest.param(*f, low, id=f"{f[0]}-{f[1]}-words{i}")
                  for i, (f, low) in enumerate(zip(FROZEN, FROZEN_LOW))]


@pytest.mark.parametrize("seed, replica, words, bits, low", _FROZEN_STATES)
def test_frozen_states(seed, replica, words, bits, low):
    """`states` gives each frozen id's full 64-bit hash state, on a batch of
    one and, through a shared last word folded onto a (2, 3) batch."""
    state = bits << 11 | low
    h = _batch_of_one(seed, replica).states([np.asarray(w) for w in words])
    assert h.dtype == np.uint64 and h.shape == (1,) and int(h[0]) == state
    if replica is not None and words:
        batch = BondField(seed).derive_replica(np.full((2, 3), replica)).prefix(words[:-1])
        assert (batch.states([words[-1]]) == state).all()


@pytest.mark.parametrize("seed, replica, words, bits, low", _FROZEN_STATES)
def test_frozen_states_into_a_destination(seed, replica, words, bits, low):
    """`states` with a destination and a scratch gives each frozen id's
    full hash state in the destination it was given, on a batch of one and
    on a (2, 3) batch that folded all but the last word.  An id of no words
    has no fold to write the destination, and is refused."""
    state = bits << 11 | low
    fld = _batch_of_one(seed, replica)
    out, scratch = np.empty(1, dtype=np.uint64), np.empty(1, dtype=np.uint64)
    if not words:
        with pytest.raises(ValueError, match="a column to fold"):
            fld.states([], out=out, scratch=scratch)
        return
    assert fld.states([np.asarray(w) for w in words], out=out, scratch=scratch) is out
    assert int(out[0]) == state
    if replica is None:
        return
    batch = BondField(seed).derive_replica(np.full((2, 3), replica)).prefix(words[:-1])
    out, scratch = np.zeros((2, 3), dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)
    assert batch.states([words[-1]], out=out, scratch=scratch) is out
    assert (out == state).all()


_AXES = st.lists(st.integers(1, 5), min_size=1, max_size=3)  # a batch has an axis


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(-2**63, 2**63 - 1), draw=st.integers(0, 2**32),
       width=st.integers(1, 5), axes=_AXES)
def test_states_into_a_destination_equal_fresh_states(seed, draw, width, axes):
    """Over random broadcast shapes, word counts and seeds, `states` folded
    into a destination the caller owns, holding garbage, is bit for bit the
    `states` of a fresh array, and it is that destination that is returned.
    A destination without a scratch, or without a column, is refused."""
    rng = np.random.default_rng(draw)

    def part():  # a shape that broadcasts to `axes`
        return tuple(a if rng.random() < 0.5 else 1 for a in axes)

    fld = BondField(seed).derive_replica(rng.integers(0, 2**40, size=part()))
    cols = [rng.integers(-2**40, 2**40, size=part()) for _ in range(width)]
    want = fld.states(cols)
    out = rng.integers(0, 2**64, size=want.shape, dtype=np.uint64)
    scratch = rng.integers(0, 2**64, size=want.shape, dtype=np.uint64)
    assert fld.states(cols, out=out, scratch=scratch) is out
    assert out.dtype == np.uint64 and np.array_equal(out, want)
    with pytest.raises(ValueError, match="together"):
        fld.states(cols, out=out)
    with pytest.raises(ValueError, match="a column to fold"):
        fld.states([], out=out, scratch=scratch)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(-2**63, 2**63 - 1), draw=st.integers(0, 2**32),
       width=st.integers(0, 5), split=st.integers(0, 5), axes=_AXES)
def test_prefix_is_states_kept_as_a_field(seed, draw, width, split, axes):
    """Over random broadcast shapes, seeds and id words split at a random
    point into a and b, `prefix(a).states(b)` is `states(a + b)` bit for
    bit, `prefix([])` keeps the base's states, and `prefix(a).prefix(b)`
    is `prefix(a + b)`."""
    rng = np.random.default_rng(draw)

    def part():  # a shape that broadcasts to `axes`
        return tuple(a if rng.random() < 0.5 else 1 for a in axes)

    fld = BondField(seed).derive_replica(rng.integers(0, 2**40, size=part()))
    cols = [rng.integers(-2**40, 2**40, size=part()) for _ in range(width)]
    a, b = cols[:split], cols[split:]
    want = fld.states(cols)
    assert np.array_equal(fld.prefix(a).states(b), want)
    assert np.array_equal(fld.prefix([]).states([]), fld.states([]))
    assert np.array_equal(fld.prefix([]).states(cols), want)
    assert np.array_equal(fld.prefix(a).prefix(b).states([]), fld.prefix(cols).states([]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(-2**63, 2**63 - 1), draw=st.integers(0, 2**32),
       width=st.integers(1, 5))
def test_uniforms_are_the_high_bits_of_states(seed, draw, width):
    """Over random id columns of random widths, the uniforms are the high 53
    bits of `states`, bit for bit."""
    rng = np.random.default_rng(draw)
    cols = [rng.integers(-2**40, 2**40, size=(64, 32)) for _ in range(width)]
    fld = BondField(seed).derive_replica(rng.integers(0, 2**40, size=(1, 32)))
    h = fld.states(cols)
    assert h.dtype == np.uint64 and h.shape == (64, 32)
    assert ((h >> 11).astype(np.float64) * 2.0**-53 == fld.uniforms(cols)).all()
