"""Deterministic lazy bond configurations over infinite bond sets.

Nothing is ever stored: each bond's open/closed indicator is recomputed on
demand as a pure function of (seed, replica, canonical bond id).  The id is
packed injectively into 64-bit words and pushed through a splitmix64-style
counter-mode mix; the high 53 bits of the final word give a uniform variate
in [0, 1) which is compared (strict <) against the bond's probability.

Because the uniform depends only on the bond id and not on the truncation
range, configurations at different k are automatically coupled: raising k
only raises probabilities, so every bond open at k stays open at k' >= k.

Id encoding (documented so independent implementations can reproduce
configurations bit-exactly).  Every integer field is biased by 2**31 into a
nonnegative 64-bit word; words are folded left to right into the mix state:

    G-oriented bond    : [0, n, x_1..x_d, axis, displacement]
    Gstar horizontal   : [1, n, u_1, u_2, axis, range]   (u = lexicographic
                         min endpoint, range = |displacement| > 0)
    Gstar vertical     : [2, n, x_1, x_2]                (always to n+1)
    site (Z^2_+ cone)  : [3, m, n]
    contact death mark : [7, x_1..x_d, kind, j]
    contact arrow mark : [8, x_1..x_d, axis, disp, kind, j]

A contact mark of kind 0 (j = 0) is its process's Poisson count, and one
of kind 1 is the time of its j-th mark (j >= 1); the marks of replica r
are drawn on replica r + attempt * 2**40, where attempt counts the
timeline's collision resamples.

The stream has two evaluations with the same bits.  The scalar path
(`uniform_words`, under `uniform` and `is_open`) runs splitmix64 on plain
Python ints masked to 64 bits; a single-replica field keeps its base as an
int.  The vector path has one batched fold, `states`, which runs it on
numpy uint64 arrays and folds each id column at the shape it broadcasts to
with the base and the columns before it, so a tag or generation shared by
the batch is hashed once per replica, not once per id.  The oriented front
step is an example: the coordinates of its F vertices fold at (F, 1, 1),
the axis at (F, d, 1), and only the displacement at (F, d, moves per
axis).  Each fold makes one fresh array of its broadcast shape and runs
the rest of the finalizer in place on it, unless the caller hands
`states` a destination and a scratch of the full shape: every fold then
writes into those, so a caller that draws batch after batch, as the cone
scan does each generation, allocates nothing per draw, with the same
bits.  `uniforms` reads the uint64
states h as (h >> 11) * 2**-53, and `open_mask` tests those uniforms; the
cone scan compares the states themselves.  The frozen table in
`tests/test_bondfield.py` pins both paths and the full states.

Both cone site-percolation paths read the site id: the scalar oracle
`site_perc_cone` of `tests/oracles.py` on one replica field,
`renorm.cone_survival_scan` on a batch of them.
`derive_replica` accepts an integer index array as well as an integer; the
derived base then takes the array's shape and `states` broadcasts the id
columns against it, so element r of a batch reads exactly the stream of
`derive_replica(r)`.  Scalar draws on such a batch raise ValueError.
`take` selects replicas of a batch, and `prefix` is `states` kept as a
field: it folds id words that a whole batch shares once per replica, as the
oriented front step does with its tag and generation; both keep every draw's
bits, and both take a batch field only.  A prefix may also differ across a
batch's axes: the cone scan folds [TAG_SITE, m] for a window of columns m
into a (columns, replicas) batch, keeps it across generations (`concat` on
axis 0 extends it), and a generation draws the `states` of `take` of its
window with the one word n.
`run_replicas`, the one replica loop, maps a chunk kernel over chunks of
replicas, in the calling process and in `workers - 1` children forked from
it, each child sending its records back through a pipe, and concatenates
the chunks' arrays, one row per replica, on axis 0; there are never
more workers than CPUs this process may run on.  Replica r reads
`BondField(seed).derive_replica(r)` however the replicas are chunked or
shared out, so no schedule changes a record.  `chunk_cap` is the one
chunk budget: each model states the bytes of one replica's working set in
closed form, and a chunk holds at most _CHUNK_BYTES of them, or one
replica where one holds more, so a chunk's memory does not grow with reps.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

TAG_G = 0
TAG_GSTAR_H = 1
TAG_GSTAR_V = 2
TAG_SITE = 3

_U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BIAS = 1 << 31  # shifts signed coordinates into nonnegative words


def _mix(h):
    """splitmix64 finalizer on a Python int in [0, 2^64)."""
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def _fold(h, w):
    return _mix(((h ^ w) + _GOLDEN) & _MASK)


_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
_M1, _M2, _GOLDEN_U64 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB), _U64(_GOLDEN)


def _mix_array(h):
    """splitmix64 finalizer, elementwise on uint64 arrays (wraps mod 2^64;
    callers silence numpy's overflow warning for 0-d operands)."""
    h = (h ^ (h >> _S30)) * _M1
    h = (h ^ (h >> _S27)) * _M2
    return h ^ (h >> _S31)


def _fold_array(h, w, out=None, scratch=None):
    """splitmix64's fold of word w into state h, elementwise on uint64
    arrays: the first op makes the result, a fresh array of the shape h and
    w broadcast to, or writes it into `out`, and the rest run in place on
    it and one scratch array, fresh or `scratch` (of out's shape)."""
    if out is None:
        h = h ^ w
        if not h.ndim:  # a numpy scalar has no in-place ops
            return _mix_array(h + _GOLDEN_U64)
    else:
        h = np.bitwise_xor(h, w, out=out)
    h += _GOLDEN_U64
    t = h >> _S30 if scratch is None else np.right_shift(h, _S30, out=scratch)
    h ^= t
    h *= _M1
    np.right_shift(h, _S27, out=t)
    h ^= t
    h *= _M2
    np.right_shift(h, _S31, out=t)
    h ^= t
    return h


@dataclass(frozen=True)
class BondId:
    """Canonical identity of one bond (or one site, for site percolation)."""

    words: tuple  # the encoded id; words[0] is the tag

    @staticmethod
    def oriented(x, n: int, axis: int, disp: int) -> "BondId":
        """Bond <(x, n), (x + disp*e_axis, n+1)> of the oriented graph."""
        if disp == 0:
            raise ValueError("oriented bonds have nonzero displacement")
        return BondId((TAG_G, n, *x, axis, disp))

    @staticmethod
    def star_horizontal(x, n: int, axis: int, disp: int) -> "BondId":
        """Unoriented horizontal bond <(x, n), (x + disp*e_axis, n)>; the two
        endpoint orderings canonicalize to the same id."""
        if disp == 0:
            raise ValueError("horizontal bonds have nonzero displacement")
        y = list(x)
        y[axis - 1] += disp
        u = min(tuple(x), tuple(y))
        return BondId((TAG_GSTAR_H, n, *u, axis, abs(disp)))

    @staticmethod
    def star_vertical(x, n: int) -> "BondId":
        """Oriented vertical bond <(x, n), (x, n+1)>."""
        return BondId((TAG_GSTAR_V, n, *x))


class BondField:
    """Immutable, seeded source of open/closed indicators.

    All methods are pure; the field may be shared freely across threads.
    Replica derivation is the only sanctioned way to obtain independent
    indicator streams.
    """

    def __init__(self, seed: int, _base=None):
        self.seed = int(seed)
        if _base is None:
            if not -2**63 <= self.seed < 2**63:
                raise ValueError("seed must fit in a signed 64-bit integer")
            _base = _mix((_mix(self.seed & _MASK) + _GOLDEN) & _MASK)
        self._base = _base  # an int for one replica, a uint64 array for a batch

    def derive_replica(self, replica) -> "BondField":
        """An independent field, deterministic in (this field, replica).

        `replica` may be an integer array; the result is then a batch of
        fields for the vectorized interface, one per index, and only that
        interface may be used on it.
        """
        if type(self._base) is int and np.ndim(replica) == 0:
            r = int(replica)
            if not 0 <= r < 2**63:
                raise ValueError("replica index must be in [0, 2**63)")
            return BondField(self.seed, _base=_fold(self._base, _mix((r + _GOLDEN) & _MASK)))
        w = np.asarray(replica, dtype=np.int64)
        if (w < 0).any():
            raise ValueError("replica index must be nonnegative")
        with np.errstate(over="ignore"):
            w = _mix_array(w.astype(np.uint64) + _GOLDEN_U64)
            return BondField(self.seed, _base=_fold_array(np.asarray(self._base, dtype=np.uint64), w))

    @property
    def shape(self) -> tuple:
        """The batch's shape; () for a single-replica field."""
        return np.shape(self._base)

    def take(self, idx) -> "BondField":
        """Replicas `idx` (an index array) of this batch field: element i of
        the result reads the stream of replica idx[i], so
        `derive_replica(a).take(i)` reads `derive_replica(a[i])`.  A tuple
        of index arrays, one per axis, selects elements of an n-d batch."""
        return BondField(self.seed, _base=self._base[idx])

    @staticmethod
    def concat(fields, axis: int = -1) -> "BondField":
        """The batch field of `fields`, batch fields of one seed, joined along
        `axis` (their last by default): every element keeps its stream."""
        bases = [np.asarray(f._base, dtype=np.uint64) for f in fields]
        return BondField(fields[0].seed, _base=np.concatenate(bases, axis=axis))

    def prefix(self, words) -> "BondField":
        """The batch field whose draw of the id words w is this batch field's
        draw of (*words, *w): the `states` of `words`, kept as a field, so
        shared leading words fold once per replica, not once per id."""
        return BondField(self.seed, _base=self.states(words))

    # -- scalar interface ---------------------------------------------------

    def uniform(self, bond: BondId) -> float:
        """The bond's own uniform variate in [0, 1)."""
        return self.uniform_words(bond.words)

    def uniform_words(self, words) -> float:
        """Uniform variate for an arbitrary injectively encoded word tuple."""
        h = self._base
        if type(h) is not int:
            raise ValueError("scalar draws need a single-replica field")
        for w in words:
            h = _fold(h, (int(w) + _BIAS) & _MASK)
        return (h >> 11) * 2.0**-53

    def is_open(self, bond: BondId, prob: float) -> bool:
        """True with probability `prob`, deterministically per (field, bond)."""
        return self.uniform(bond) < prob

    # -- vectorized interface -----------------------------------------------

    def states(self, word_columns, out=None, scratch=None) -> np.ndarray:
        """The uint64 hash states of a batch of ids, the one batched fold.

        `word_columns` is a sequence of integer arrays, one per word position
        of a common encoding (all ids in a batch share a tag and word count).
        Returns an array of the shape the columns and the field's base
        broadcast to; `uniforms` and `open_mask` read it.  Each column folds
        at the shape it broadcasts to with the base and the columns before
        it, into a fresh array.

        `out` and `scratch`, given together, are uint64 arrays of exactly
        that shape that the caller owns: every fold then runs at out's
        shape, in out, with scratch as its temporary, and `out` itself is
        returned with the same bits; scratch is left holding garbage.  So a
        caller that draws batch after batch can keep the storage it draws
        into.  Neither may overlap the base or a column.
        """
        h = np.asarray(self._base, dtype=np.uint64)
        if (out is None) != (scratch is None):
            raise ValueError("out and scratch come together")
        with np.errstate(over="ignore"):
            for c in word_columns:
                h = _fold_array(h, (np.asarray(c, dtype=np.int64) + _BIAS).view(np.uint64),
                                out, scratch)
        if out is not None and h is not out:  # no columns: the states are the base's
            np.copyto(out, h)
            h = out
        return h

    def uniforms(self, word_columns) -> np.ndarray:
        """Uniform variates in [0, 1) for a batch of ids: the high 53 bits
        of each of their `states`."""
        return (self.states(word_columns) >> _S11).astype(np.float64) * 2.0**-53

    def open_mask(self, word_columns, probs) -> np.ndarray:
        """Boolean open-indicators for a batch of ids with probabilities `probs`."""
        return self.uniforms(word_columns) < np.asarray(probs, dtype=np.float64)


# -- replica scheduling ---------------------------------------------------------

_CHUNK_BYTES = 1 << 20  # most bytes of per-replica working set one chunk holds


def chunk_cap(replica_bytes) -> int:
    """Most replicas that one chunk of `run_replicas` should hold:
    _CHUNK_BYTES over `replica_bytes`, one replica's working set as its
    model states it, or 1.  The models' byte weights keep the caps that
    their own budgets gave; they are not measured byte counts."""
    return max(1, int(_CHUNK_BYTES // replica_bytes))


def run_replicas(kernel, args, seed: int, reps: int, threads: int = 1, cap=None) -> np.ndarray:
    """The records of replicas 0..reps-1 in replica order, one row each, from
    a chunk kernel `kernel(args, root, lo, hi)` that returns an array whose
    axis 0 holds one row per replica of lo..hi-1, with root =
    BondField(seed); the chunks' arrays are concatenated on axis 0.

    The replicas are cut into the fewest chunks that hold at most `cap`
    replicas each (None: no cap) and come in a multiple of the worker count,
    so each worker runs the same number of chunks; chunk i of n holds
    replicas i reps // n .. (i + 1) reps // n - 1, so sizes differ by at
    most one, and no chunk is empty.  There are min(threads, reps, CPUs)
    workers, CPUs counting those this process may run on (`_usable_cpus`):
    the calling process and `workers - 1` children forked from it.
    Worker w runs chunks w n // workers .. (w + 1) n // workers - 1, so the
    shares differ by at most one chunk (only where n is capped at reps) and
    their arrays concatenate in replica order.  A child's array, or the
    exception its share raised, comes back pickled; a failure anywhere kills
    and reaps every child before it propagates.
    """
    if reps < 1:
        raise ValueError("replica count must be >= 1")
    workers = max(1, min(threads, reps, _usable_cpus() or 1))
    fewest = -(-reps // (cap or reps))
    n = min(reps, -(-fewest // workers) * workers)
    bounds = [i * reps // n for i in range(n + 1)]
    root = BondField(seed)

    def share(w):
        return np.concatenate([kernel(args, root, bounds[i], bounds[i + 1])
                               for i in range(w * n // workers, (w + 1) * n // workers)])

    if workers == 1:
        return share(0)
    children = []
    try:
        for w in range(1, workers):
            children.append(_fork_share(share, w))
        return np.concatenate([share(0)] + [child.records() for child in children])
    finally:
        for child in children:
            child.kill()


def _usable_cpus():
    """The number of CPUs this process may run on: its affinity set where
    the platform reports one (under `taskset -c 0` it is 1 however many the
    host has), else the host's count; None where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _fork_share(share, w) -> "_Child":
    """Fork a child that runs `share(w)` and sends back what it returns or
    raises; the child leaves through os._exit, so it runs no exit handler
    and flushes no buffer it inherited."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return _Child(pid, os.fdopen(rfd, "rb"))
    code = 1
    try:
        os.close(rfd)
        try:
            data = pickle.dumps(("ok", share(w)))
        except BaseException as exc:
            data = _pickled_error(exc)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc) -> bytes:
    """("err", exc) pickled, or ("err", RuntimeError(repr(exc))) where exc
    does not survive a pickle round trip."""
    try:
        data = pickle.dumps(("err", exc))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(("err", RuntimeError(repr(exc))))
    return data


class _Child:
    """A forked worker running one share, read through one pipe."""

    def __init__(self, pid: int, pipe):
        self.pid, self.pipe = pid, pipe

    def records(self) -> np.ndarray:
        """The share's records; raises the share's exception, or
        RuntimeError where the child exited without sending a result.
        The pipe is read to EOF before the child is reaped, so a child
        blocked on a full pipe cannot stall the caller."""
        with self.pipe:
            data = self.pipe.read()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"a replica worker exited with status {code} "
                               "before sending its records")
        kind, value = pickle.loads(data)
        if kind == "err":
            raise value
        return value

    def kill(self) -> None:
        """SIGKILL and reap the child, unless `records` has reaped it."""
        if self.pid is None:
            return
        os.kill(self.pid, signal.SIGKILL)
        self.pipe.close()
        os.waitpid(self.pid, 0)
        self.pid = None
