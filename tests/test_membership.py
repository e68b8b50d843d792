"""Dense-keyspace membership: ``locate`` and ``union`` in repro.containers.bitmap.

Both primitives pick a branch from array sizes alone: a gather or bitmap OR
through the shared int32 slot map, or a binary search / ``np.union1d``.
The branches must return the same arrays, and the slot map must read all
zeros after every call, whichever branch ran and whether or not it raised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.cpu.spgemm import spgemm_esr, spgemm_masked_esr
from repro.containers import bitmap
from repro.containers.bitmap import SLOT_MAP_CAP, dense_keyspace_ok, locate, union
from repro.containers.csr import CSRMatrix
from repro.core.semiring import PLUS_PAIR, PLUS_TIMES
from repro.types import FP64, INT64

# Keyspaces on both sides of each rule: small, the dense gate's edge, and
# beyond the map's cap (test_cap_boundary covers the cap itself, which
# would make every all-zeros check here read a 128 MB map).
KEYSPACES = [1, 5, 64, 1 << 16, (1 << 16) + 1, 1 << 20, SLOT_MAP_CAP + 1, 1 << 40]


def map_is_clear() -> bool:
    return not bitmap._SLOT_MAP.any()


def ref_locate(haystack, needles):
    pos = np.searchsorted(haystack, needles)
    present = np.array(
        [p < haystack.size and haystack[p] == x for p, x in zip(pos, needles)],
        dtype=bool,
    )
    return present, pos


@st.composite
def key_sets(draw):
    """(keyspace, sorted unique haystack, needles) with hits and misses."""
    keyspace = draw(st.sampled_from(KEYSPACES))
    keys = st.integers(0, keyspace - 1)
    hay = sorted(draw(st.sets(keys, max_size=80)))
    pick = st.sampled_from(hay) if hay else keys
    needles = draw(st.lists(st.one_of(keys, pick), max_size=80))
    return (
        keyspace,
        np.array(hay, dtype=np.int64),
        np.array(needles, dtype=np.int64),
    )


class TestLocate:
    @given(key_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted(self, data):
        keyspace, hay, needles = data
        present, pos = locate(hay, needles, keyspace)
        want_present, want_pos = ref_locate(hay, needles)
        np.testing.assert_array_equal(present, want_present)
        np.testing.assert_array_equal(pos[present], want_pos[want_present])
        assert map_is_clear()

    @given(key_sets())
    @settings(max_examples=100, deadline=None)
    def test_branches_agree(self, data):
        """The same keys probed inside and beyond the map's cap agree."""
        keyspace, hay, needles = data
        if keyspace > SLOT_MAP_CAP:
            return
        p_map, i_map = locate(hay, needles, keyspace)
        p_bin, i_bin = locate(hay, needles, SLOT_MAP_CAP + 1)
        np.testing.assert_array_equal(p_map, p_bin)
        np.testing.assert_array_equal(i_map[p_map], i_bin[p_bin])
        assert map_is_clear()

    @pytest.mark.parametrize("keyspace", [1, 100, SLOT_MAP_CAP + 1])
    def test_empty_haystack(self, keyspace):
        present, pos = locate(np.empty(0, np.int64), np.zeros(9, np.int64), keyspace)
        assert present.shape == (9,) and not present.any()
        assert pos.shape == (9,)

    @pytest.mark.parametrize("keyspace", [10, SLOT_MAP_CAP + 1])
    def test_empty_needles(self, keyspace):
        present, pos = locate(np.array([1, 4]), np.empty(0, np.int64), keyspace)
        assert present.size == 0 and pos.size == 0
        assert map_is_clear()

    @pytest.mark.parametrize("keyspace", [64, SLOT_MAP_CAP + 1])
    def test_absent_needles(self, keyspace):
        hay = np.array([3, 9, 27], dtype=np.int64)
        present, _ = locate(hay, np.array([0, 2, 10, 28, 63, 4, 5, 8]), keyspace)
        assert not present.any()
        assert map_is_clear()

    def test_both_sides_of_the_share_rule(self):
        """Few needles against a large haystack binary-search; more gather."""
        hay = np.arange(0, 4000, 2, dtype=np.int64)
        for count in (1, hay.size // 8 - 1, hay.size // 8, hay.size):
            needles = np.arange(count, dtype=np.int64) * 3 % 4000
            present, pos = locate(hay, needles, 4000)
            want_present, want_pos = ref_locate(hay, needles)
            np.testing.assert_array_equal(present, want_present)
            np.testing.assert_array_equal(pos[present], want_pos[want_present])
        assert map_is_clear()

    def test_cap_boundary(self):
        """The largest mapped keyspace gathers; one key more binary-searches."""
        hay = np.array([0, 5, SLOT_MAP_CAP - 1], dtype=np.int64)
        needles = np.array([SLOT_MAP_CAP - 1, 1, 5, 0] * 2, dtype=np.int64)
        saved = bitmap._SLOT_MAP
        bitmap._SLOT_MAP = np.zeros(0, dtype=np.int32)
        try:
            locate(hay, needles, SLOT_MAP_CAP + 1)
            assert bitmap._SLOT_MAP.size == 0
            present, pos = locate(hay, needles, SLOT_MAP_CAP)
            assert bitmap._SLOT_MAP.size == SLOT_MAP_CAP
            assert present.tolist() == [True, False, True, True] * 2
            assert pos[present].tolist() == [2, 1, 0] * 2
            assert map_is_clear()
        finally:
            bitmap._SLOT_MAP = saved

    def test_raising_probe_restores_the_map(self):
        hay = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(IndexError):
            locate(hay, np.array([0, 1, 2, 50] * 4), 10)
        assert map_is_clear()
        present, pos = locate(hay, np.array([3, 0, 1] * 4), 10)
        assert present.tolist() == [True, False, True] * 4
        assert pos[present].tolist() == [2, 0] * 4


class TestUnion:
    @given(key_sets(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_union1d(self, data, more):
        keyspace, a, _ = data
        b = np.array(
            sorted(more.draw(st.sets(st.integers(0, keyspace - 1), max_size=80))),
            dtype=np.int64,
        )
        got = union(a, b, keyspace)
        want = np.union1d(a, b)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert map_is_clear()

    def test_both_sides_of_the_dense_gate(self):
        a = np.array([0, 7, 70_000], dtype=np.int64)
        b = np.array([7, 8, 200_000], dtype=np.int64)
        for keyspace in (1 << 18, 1 << 30):
            assert dense_keyspace_ok(keyspace, a.size + b.size) is (keyspace <= 1 << 16)
            np.testing.assert_array_equal(union(a, b, keyspace), np.union1d(a, b))
        dense = np.arange(0, 1 << 17, 3, dtype=np.int64)
        assert dense_keyspace_ok(1 << 17, 2 * dense.size)
        np.testing.assert_array_equal(
            union(dense, dense + 1, 1 << 17), np.union1d(dense, dense + 1)
        )
        assert map_is_clear()

    def test_empty_operands(self):
        e = np.empty(0, np.int64)
        assert union(e, e, 10).size == 0
        np.testing.assert_array_equal(union(e, np.array([4]), 10), [4])
        assert map_is_clear()


def _random_csr(rng, n, density, typ=FP64):
    dense = (rng.random((n, n)) < density) * rng.integers(1, 5, (n, n))
    return CSRMatrix.from_dense(dense.astype(typ.dtype))


def _flat(c: CSRMatrix):
    rows = np.repeat(np.arange(c.nrows, dtype=np.int64), c.row_degrees())
    return rows * c.ncols + c.indices, c.values


def test_masked_spgemm_and_locate_interleave():
    """Both slot-map users alternate over growing and shrinking keyspaces."""
    rng = np.random.default_rng(0)
    for n in (40, 300, 12, 700, 64):
        a = _random_csr(rng, n, 0.05)
        allowed = np.flatnonzero(rng.random(n * n) < 0.1).astype(np.int64)
        for semiring, typ in ((PLUS_TIMES, FP64), (PLUS_PAIR, INT64)):
            keys, vals = _flat(spgemm_esr(a, a, semiring, typ))
            keep = np.isin(keys, allowed)
            got_keys, got_vals = _flat(spgemm_masked_esr(a, a, semiring, typ, allowed))
            np.testing.assert_array_equal(got_keys, keys[keep])
            np.testing.assert_array_equal(got_vals, vals[keep])
            assert map_is_clear()
        hay = np.unique(rng.integers(0, 3 * n, n))
        needles = rng.integers(0, 3 * n, 4 * n)
        present, pos = locate(hay, needles, 3 * n)
        want_present, want_pos = ref_locate(hay, needles)
        np.testing.assert_array_equal(present, want_present)
        np.testing.assert_array_equal(pos[present], want_pos[want_present])
        assert map_is_clear()
