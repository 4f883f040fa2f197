"""Every derived-datatype constructor against the MPI typemap.

The oracle is written from the MPI definitions with plain Python loops:
it enumerates each element's byte runs in pack order, then merges runs
that are adjacent both in pack order and in memory. Each base type is
described to the oracle by a :class:`Ref` the oracle built itself, so
no flattening code of the module under test feeds the expected values.

Bounds follow the module's conventions: ``hindexed``, ``indexed``,
``indexed_block``, ``struct`` and ``vector`` report the true lower bound
and extent of their runs (``(0, 0)`` when empty), ``subarray`` and
``darray`` the whole array (lb 0), ``resized`` what it was given.
"""

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi.datatype import Datatype, DatatypeError

D = Datatype
FLOAT = D.named(np.float32, "FLOAT")
DOUBLE = D.named(np.float64, "DOUBLE")
BYTE = D.named(np.uint8, "BYTE")

Runs = List[Tuple[int, int]]


@dataclass(frozen=True)
class Ref:
    """The oracle's view of a type: coalesced runs, size, lb, extent."""

    runs: Tuple[Tuple[int, int], ...]
    size: int
    lb: int
    extent: int


def coalesce(runs: Runs) -> Runs:
    out: Runs = []
    for off, ln in runs:
        if out and out[-1][0] + out[-1][1] == off:
            out[-1] = (out[-1][0], out[-1][1] + ln)
        else:
            out.append((off, ln))
    return out


def true_bounds(runs: Runs) -> Ref:
    runs = coalesce(runs)
    size = sum(ln for _, ln in runs)
    if not runs:
        return Ref((), 0, 0, 0)
    lo = min(off for off, _ in runs)
    hi = max(off + ln for off, ln in runs)
    return Ref(tuple(runs), size, lo, hi - lo)


def primitive(t: Datatype) -> Ref:
    return Ref(((0, t.size),), t.size, 0, t.size)


def element_runs(base: Ref, origin: int) -> Runs:
    """The runs of one ``base`` element whose origin sits at ``origin``."""
    return [(origin + off, ln) for off, ln in base.runs]


def ref_struct(bls, displs, bases: List[Ref]) -> Ref:
    runs: Runs = []
    for bl, disp, base in zip(bls, displs, bases):
        for j in range(bl):
            runs += element_runs(base, disp + j * base.extent)
    return true_bounds(runs)


def ref_hindexed(bls, displs, base: Ref) -> Ref:
    return ref_struct(bls, displs, [base] * len(bls))


def ref_vector(count, bl, stride, base: Ref) -> Ref:
    return ref_hindexed([bl] * count,
                        [i * stride * base.extent for i in range(count)], base)


def ref_array(sizes, owned, base: Ref, order: str) -> Ref:
    """Elements ``owned[d]`` of each dimension of a ``sizes`` array, in
    pack order: C order varies the last dimension fastest, F the first."""
    ndim = len(sizes)
    slow_to_fast = list(range(ndim)) if order == "C" else list(reversed(range(ndim)))
    stride, step = {}, 1
    for d in reversed(slow_to_fast):
        stride[d] = step
        step *= sizes[d]
    runs: Runs = []
    for idx in itertools.product(*(owned[d] for d in slow_to_fast)):
        flat = sum(i * stride[d] for i, d in zip(idx, slow_to_fast))
        runs += element_runs(base, flat * base.extent)
    runs = coalesce(runs)
    return Ref(tuple(runs), sum(ln for _, ln in runs), 0,
               math.prod(sizes) * base.extent)


def ref_subarray(sizes, subsizes, starts, base: Ref, order: str) -> Ref:
    owned = [range(s, s + n) for s, n in zip(starts, subsizes)]
    return ref_array(sizes, owned, base, order)


def ref_darray(nprocs, rank, gsizes, distribs, dargs, psizes, base: Ref,
               order: str) -> Ref:
    # The process grid is row-major whatever the array order.
    coords = []
    for p in reversed(psizes):
        coords.insert(0, rank % p)
        rank //= p
    owned = []
    for g, dist, darg, p, c in zip(gsizes, distribs, dargs, psizes, coords):
        if dist == "none":
            owned.append(range(g))
        elif dist == "block":
            b = darg if darg is not None else -(-g // p)
            owned.append([i for i in range(g) if c * b <= i < (c + 1) * b])
        else:
            b = darg if darg is not None else 1
            owned.append([i for i in range(g) if (i // b) % p == c])
    return ref_array(gsizes, owned, base, order)


def assert_matches(t: Datatype, ref: Ref) -> None:
    s = t.segments
    assert s.offsets.dtype == np.int64 and s.lengths.dtype == np.int64
    got = tuple(zip(s.offsets.tolist(), s.lengths.tolist()))
    assert got == ref.runs
    assert (t.size, t.lb, t.extent) == (ref.size, ref.lb, ref.extent)


# -- strategies ------------------------------------------------------------


@st.composite
def bases(draw):
    """A base type and its oracle Ref: a primitive, a resized type with a
    positive lb, one run at a nonzero offset, a multi-run vector or
    hindexed, or an empty type."""
    kind = draw(st.sampled_from(
        ["primitive", "resized", "offset_run", "vector", "hindexed", "empty"]))
    if kind == "primitive":
        t = draw(st.sampled_from([FLOAT, DOUBLE, BYTE]))
        return t, primitive(t)
    if kind == "resized":
        lb, ext = draw(st.integers(1, 8)), draw(st.integers(4, 16))
        return D.resized(FLOAT, lb, ext), Ref(((0, 4),), 4, lb, ext)
    if kind == "offset_run":
        bl = draw(st.integers(1, 3))
        disp = draw(st.sampled_from([-8, 4, 12]))
        return (D.hindexed([bl], [disp], FLOAT),
                ref_hindexed([bl], [disp], primitive(FLOAT)))
    if kind == "vector":
        count, bl = draw(st.integers(2, 3)), draw(st.integers(1, 2))
        stride = draw(st.integers(bl + 1, bl + 3))
        return (D.vector(count, bl, stride, FLOAT),
                ref_vector(count, bl, stride, primitive(FLOAT)))
    if kind == "hindexed":
        bls = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        displs = sorted(draw(st.lists(st.integers(-6, 12), min_size=len(bls),
                                      max_size=len(bls), unique=True)))
        displs = [d * 3 for d in displs]  # gaps of at least one byte
        return (D.hindexed(bls, displs, BYTE),
                ref_hindexed(bls, displs, primitive(BYTE)))
    return D.contiguous(0, FLOAT), Ref((), 0, 0, 0)


@st.composite
def blocks(draw, units, blocklength=None):
    """One block per entry of ``units``: blocklengths (zeros allowed, or
    all ``blocklength``) and displacements that are random (negative,
    overlapping) or back-to-back, block ``i`` taking ``bl * units[i]``."""
    n = len(units)
    if blocklength is None:
        bls = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    else:
        bls = [blocklength] * n
    if draw(st.booleans()):
        displs = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    else:
        cur = draw(st.integers(-4, 4))
        displs = []
        for bl, unit in zip(bls, units):
            displs.append(cur)
            cur += bl * unit
    return bls, displs


# -- properties ------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hindexed_indexed_and_indexed_block(data):
    base, ref = data.draw(bases())
    n = data.draw(st.integers(0, 8))
    bls, displs = data.draw(blocks([ref.extent] * n))
    assert_matches(D.hindexed(bls, displs, base),
                   ref_hindexed(bls, displs, ref))
    bls, displs = data.draw(blocks([1] * n))
    assert_matches(D.indexed(bls, displs, base),
                   ref_hindexed(bls, [d * ref.extent for d in displs], ref))
    bl = data.draw(st.integers(0, 3))
    _, displs = data.draw(blocks([1] * n, bl))
    assert_matches(D.indexed_block(bl, displs, base),
                   ref_hindexed([bl] * n, [d * ref.extent for d in displs], ref))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_struct_mixed_and_repeated_types(data):
    pool = data.draw(st.lists(bases(), min_size=1, max_size=3))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    refs = [pool[i][1] for i in picks]
    bls, displs = data.draw(blocks([r.extent for r in refs]))
    types = [pool[i][0] for i in picks]
    assert_matches(D.struct(bls, displs, types),
                   ref_struct(bls, displs, refs))


@st.composite
def subarray_args(draw):
    ndim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim))
    subsizes = [draw(st.integers(1, n)) for n in sizes]
    starts = [draw(st.integers(0, n - s)) for n, s in zip(sizes, subsizes)]
    return sizes, subsizes, starts, draw(st.sampled_from("CF"))


@settings(max_examples=120, deadline=None)
@given(subarray_args(), bases())
@example(([4], [2], [1], "C"),
         (D.hindexed([2], [4], FLOAT), Ref(((4, 8),), 8, 4, 8)))
def test_subarray(args, base_ref):
    sizes, subsizes, starts, order = args
    base, ref = base_ref
    assert_matches(D.subarray(sizes, subsizes, starts, base, order),
                   ref_subarray(sizes, subsizes, starts, ref, order))


@st.composite
def darray_args(draw):
    ndim = draw(st.integers(1, 3))
    gsizes, distribs, dargs, psizes = [], [], [], []
    for _ in range(ndim):
        g = draw(st.integers(1, 6))
        dist = draw(st.sampled_from(["none", "block", "cyclic"]))
        p = 1 if dist == "none" else draw(st.integers(1, 3))
        if dist == "block":
            darg = draw(st.none() | st.integers(-(-g // p), g))
        elif dist == "cyclic":
            darg = draw(st.none() | st.integers(1, 3))
        else:
            darg = None
        gsizes.append(g)
        distribs.append(dist)
        dargs.append(darg)
        psizes.append(p)
    nprocs = math.prod(psizes)
    rank = draw(st.integers(0, nprocs - 1))
    return nprocs, rank, gsizes, distribs, dargs, psizes, draw(st.sampled_from("CF"))


@settings(max_examples=120, deadline=None)
@given(darray_args(), bases())
@example((2, 1, [4], ["block"], [None], [2], "C"),
         (D.hindexed([2], [4], FLOAT), Ref(((4, 8),), 8, 4, 8)))
@example((6, 1, [4, 6], ["block", "block"], [None, None], [2, 3], "F"),
         (FLOAT, primitive(FLOAT)))
def test_darray(args, base_ref):
    nprocs, rank, gsizes, distribs, dargs, psizes, order = args
    base, ref = base_ref
    assert_matches(
        D.darray(nprocs, rank, gsizes, distribs, dargs, psizes, base, order),
        ref_darray(nprocs, rank, gsizes, distribs, dargs, psizes, ref, order),
    )


# -- rejected inputs -------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: D.hindexed([1, -1], [0, 8], FLOAT),
        lambda: D.indexed([2, 0, -3], [0, 4, 8], FLOAT),
        lambda: D.indexed_block(-1, [0, 4], FLOAT),
        lambda: D.struct([1, -2], [0, 8], [FLOAT, DOUBLE]),
        lambda: D.struct([-1, 1], [0, 8], [FLOAT, FLOAT]),
    ],
    ids=["hindexed", "indexed", "indexed_block", "struct_mixed",
         "struct_repeated"],
)
def test_negative_blocklength_raises(build):
    with pytest.raises(DatatypeError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: D.hindexed([1, 2], [0], FLOAT),
        lambda: D.struct([1, 1], [0, 8], [FLOAT]),
        lambda: D.subarray([4, 4], [2], [0, 0], FLOAT),
        lambda: D.darray(2, 0, [4, 4], ["block"], [None, None], [2, 1], FLOAT),
    ],
    ids=["hindexed", "struct_types", "subarray", "darray"],
)
def test_length_mismatch_raises(build):
    # indexed and a short struct blocklength list: test_datatype.py.
    with pytest.raises(DatatypeError):
        build()
