"""Unit + property tests for twins and run-length diffs (repro.tmk.diffs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmk.diffs import (RUN_HEADER_BYTES, WORD, Diff, apply_diff,
                             apply_diffs, diff_nbytes, make_diff,
                             mask_diff_nbytes)
from repro.tmk.protocol import ZERO_TWIN

PAGE = 4096


def page(fill=0):
    return np.full(PAGE, fill, dtype=np.uint8)


def test_identical_pages_give_empty_diff():
    twin = page(7)
    cur = twin.copy()
    assert make_diff(cur, twin) == []


def test_empty_diff_costs_nothing():
    assert diff_nbytes([]) == 0


def test_single_word_change():
    twin = page(0)
    cur = twin.copy()
    cur[100:104] = 0xFF
    diff = make_diff(cur, twin)
    assert len(diff) == 1
    off, data = diff[0]
    assert off == 100 and len(data) == 4


def test_word_granularity_rounding():
    """A single changed byte produces a whole-word run."""
    twin = page(0)
    cur = twin.copy()
    cur[101] = 1   # middle of word 25
    diff = make_diff(cur, twin)
    assert diff == [(100, cur[100:104].tobytes())]


def test_adjacent_words_merge_into_one_run():
    twin = page(0)
    cur = twin.copy()
    cur[100:112] = 5    # words 25, 26, 27
    diff = make_diff(cur, twin)
    assert len(diff) == 1
    assert diff[0][0] == 100 and len(diff[0][1]) == 12


def test_separate_runs_stay_separate():
    twin = page(0)
    cur = twin.copy()
    cur[0:4] = 1
    cur[200:204] = 2
    cur[4092:4096] = 3
    diff = make_diff(cur, twin)
    assert [off for off, _ in diff] == [0, 200, 4092]


def test_apply_restores_modified_page():
    rng = np.random.default_rng(1)
    twin = rng.integers(0, 256, PAGE).astype(np.uint8)
    cur = twin.copy()
    cur[500:900] = rng.integers(0, 256, 400).astype(np.uint8)
    diff = make_diff(cur, twin)
    target = twin.copy()
    apply_diff(target, diff)
    assert np.array_equal(target, cur)


def test_apply_to_third_party_base_patches_only_runs():
    """Applying a diff changes only the modified words — the multiple-writer
    merge property."""
    twin = page(0)
    cur = twin.copy()
    cur[0:4] = 9
    diff = make_diff(cur, twin)
    other = page(0)
    other[2000:2004] = 7    # concurrent disjoint modification
    apply_diff(other, diff)
    assert other[0] == 9 and other[2000] == 7


def test_concurrent_disjoint_diffs_commute():
    twin = page(0)
    a = twin.copy()
    a[0:400] = 1
    b = twin.copy()
    b[400:800] = 2
    da = make_diff(a, twin)
    db = make_diff(b, twin)
    ab = twin.copy()
    apply_diff(ab, da)
    apply_diff(ab, db)
    ba = twin.copy()
    apply_diff(ba, db)
    apply_diff(ba, da)
    assert np.array_equal(ab, ba)
    assert ab[0] == 1 and ab[400] == 2


def test_diff_nbytes_counts_headers_and_payload():
    twin = page(0)
    cur = twin.copy()
    cur[0:8] = 1
    cur[100:104] = 2
    diff = make_diff(cur, twin)
    assert diff_nbytes(diff) == (8 + RUN_HEADER_BYTES) + (4 + RUN_HEADER_BYTES)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        make_diff(page(), np.zeros(8, np.uint8))


def test_non_word_multiple_rejected():
    with pytest.raises(ValueError):
        make_diff(np.zeros(6, np.uint8), np.zeros(6, np.uint8))


def test_out_of_range_run_rejected():
    with pytest.raises(ValueError, match="exceeds page size"):
        apply_diff(np.zeros(8, np.uint8), [(4, b"12345678")])


def test_negative_offset_run_rejected():
    """A run before the page start must not wrap onto the page's tail."""
    target = np.zeros(16, np.uint8)
    with pytest.raises(ValueError, match="exceeds page size"):
        apply_diff(target, [(-8, b"\x01" * 4)])
    assert not target.any()


def test_apply_onto_read_only_page_raises():
    twin = page(0)
    cur = twin.copy()
    cur[0:4] = 1
    target = page(0)
    target.flags.writeable = False
    with pytest.raises(TypeError, match="read-only"):
        apply_diff(target, make_diff(cur, twin))
    assert not target.any()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, PAGE // WORD - 1),
              st.integers(0, 255)),
    max_size=64))
def test_roundtrip_property(changes):
    """apply(make_diff(cur, twin), twin) == cur for arbitrary word edits."""
    twin = np.arange(PAGE, dtype=np.uint32).view(np.uint8)[:PAGE].copy()
    cur = twin.copy()
    for word, val in changes:
        cur[word * WORD:(word + 1) * WORD] = val
    diff = make_diff(cur, twin)
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, cur)


# --------------------------------------------------------------------- #
# seeded randomized round-trips: random twin/page pairs must encode and
# re-apply bit-identically, including the degenerate shapes


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_seeded_random_edits_roundtrip(seed):
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE).astype(np.uint8)
    cur = twin.copy()
    for _ in range(int(rng.integers(1, 24))):
        word = int(rng.integers(0, PAGE // WORD))
        span = int(rng.integers(1, 16))
        lo = word * WORD
        hi = min(PAGE, lo + span * WORD)
        cur[lo:hi] = rng.integers(0, 256, hi - lo).astype(np.uint8)
    diff = make_diff(cur, twin)
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, cur)


@pytest.mark.parametrize("seed", [5, 6])
def test_seeded_unmodified_page_gives_empty_diff(seed):
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE).astype(np.uint8)
    assert make_diff(twin.copy(), twin) == []


@pytest.mark.parametrize("seed", [7, 8])
def test_seeded_full_page_diff_roundtrip(seed):
    """Every word modified: one run spanning the whole page."""
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE).astype(np.uint8)
    cur = (twin + 1).astype(np.uint8)    # every byte (hence word) differs
    diff = make_diff(cur, twin)
    assert len(diff) == 1
    assert diff[0][0] == 0 and len(diff[0][1]) == PAGE
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, cur)


def test_word_boundary_runs_roundtrip():
    """Runs hugging both page edges survive the round trip intact."""
    twin = page(0)
    cur = twin.copy()
    cur[0:WORD] = 1
    cur[PAGE - WORD:PAGE] = 2
    diff = make_diff(cur, twin)
    assert [off for off, _ in diff] == [0, PAGE - WORD]
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, cur)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, PAGE // WORD - 1), st.integers(1, 64))
def test_run_structure_property(start_word, nwords):
    """A contiguous word-span edit yields exactly one run of that span."""
    nwords = min(nwords, PAGE // WORD - start_word)
    twin = page(0)
    cur = twin.copy()
    lo = start_word * WORD
    hi = lo + nwords * WORD
    cur[lo:hi] = 0xAB
    diff = make_diff(cur, twin)
    assert diff == [(lo, cur[lo:hi].tobytes())]
    assert diff_nbytes(diff) == (hi - lo) + RUN_HEADER_BYTES


# ---------------------------------------------------------------------- #
# batch application (apply_diffs)

def test_apply_diffs_empty_batch_is_noop():
    target = page(3)
    apply_diffs(target, [])
    assert np.array_equal(target, page(3))
    apply_diffs(target, [[], []])    # empty diffs inside the batch too
    assert np.array_equal(target, page(3))


def test_apply_diffs_matches_sequential_application():
    rng = np.random.default_rng(11)
    twin = rng.integers(0, 256, PAGE).astype(np.uint8)
    diffs = []
    for seed in range(4):
        cur = twin.copy()
        r = np.random.default_rng(seed)
        for _ in range(5):
            w = int(r.integers(0, PAGE // WORD))
            cur[w * WORD:(w + 1) * WORD] = r.integers(0, 256, WORD)
        diffs.append(make_diff(cur, twin))
    seq = twin.copy()
    for d in diffs:
        apply_diff(seq, d)
    batch = twin.copy()
    apply_diffs(batch, diffs)
    assert np.array_equal(batch, seq)


def test_apply_diffs_overlap_later_wins():
    """Overlapping runs resolve in list order: the last writer's bytes
    land, exactly as the sequential loop they replace."""
    twin = page(0)
    a = twin.copy()
    a[100:108] = 1
    b = twin.copy()
    b[104:112] = 2
    target = twin.copy()
    apply_diffs(target, [make_diff(a, twin), make_diff(b, twin)])
    assert target[100] == 1 and target[104] == 2 and target[108] == 2


def test_memoryview_payloads_behave_like_bytes():
    """make_diff's zero-copy payloads must satisfy every consumer that
    treated them as bytes: equality, len, buffer protocol."""
    twin = page(0)
    cur = twin.copy()
    cur[200:208] = 5
    diff = make_diff(cur, twin)
    off, data = diff[0]
    assert data == cur[200:208].tobytes()
    assert len(data) == 8
    assert np.frombuffer(data, dtype=np.uint8)[0] == 5


def test_payload_survives_later_write_to_live_page():
    """The snapshot rule: a diff keeps the bytes the page held when it was
    made, not what the live page holds later."""
    twin = page(0)
    cur = twin.copy()
    cur[200:208] = 5
    cur[4092:4096] = 6
    diff = make_diff(cur, twin)
    cur[:] = 9
    assert [(off, bytes(data)) for off, data in diff] == [
        (200, b"\x05" * 8), (4092, b"\x06" * 4)]


# --------------------------------------------------------------------- #
# the run rule against a word-by-word reference encoder, and the model's
# size-from-mask function against the simulator's encoded size

def reference_diff(current, twin):
    """Maximal runs of changed words, one word at a time."""
    runs, start = [], None
    for w in range(current.size // WORD + 1):
        lo = w * WORD
        changed = (lo < current.size and
                   bytes(current[lo:lo + WORD]) != bytes(twin[lo:lo + WORD]))
        if changed and start is None:
            start = lo
        elif not changed and start is not None:
            runs.append((start, current[start:lo].tobytes()))
            start = None
    return runs


NWORDS = PAGE // WORD


def _masks():
    shaped = st.sampled_from([
        np.zeros(NWORDS, bool), np.ones(NWORDS, bool),
        np.arange(NWORDS) == 0, np.arange(NWORDS) == NWORDS - 1,
        np.arange(NWORDS) == NWORDS // 2,
        np.arange(NWORDS) % 2 == 0, np.arange(NWORDS) % 2 == 1])
    drawn = st.tuples(st.integers(0, 2**32 - 1), st.floats(0, 1),
                      st.booleans(), st.booleans()).map(_random_mask)
    return shaped | drawn


def _random_mask(args):
    seed, density, first, last = args
    mask = np.random.default_rng(seed).random(NWORDS) < density
    mask[0], mask[-1] = first, last
    return mask


def _page_pair(mask, seed):
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, PAGE, dtype=np.uint8)
    cur = twin.copy()
    flip = rng.integers(1, 2**32, NWORDS, dtype=np.uint32)  # never zero
    cur.view(np.uint32)[mask] ^= flip[mask]
    return cur, twin


@settings(max_examples=80, deadline=None)
@given(_masks(), st.integers(0, 2**16))
def test_make_diff_matches_reference_encoder(mask, seed):
    cur, twin = _page_pair(mask, seed)
    diff = make_diff(cur, twin)
    assert [(off, bytes(data)) for off, data in diff] == \
        reference_diff(cur, twin)


@settings(max_examples=80, deadline=None)
@given(_masks(), st.integers(0, 2**16))
def test_mask_diff_nbytes_matches_encoded_size(mask, seed):
    """The model's size rule and the simulator's diffs agree by test."""
    cur, twin = _page_pair(mask, seed)
    changed = cur.view(np.uint32) != twin.view(np.uint32)
    assert np.array_equal(changed, mask)
    assert mask_diff_nbytes(changed) == diff_nbytes(make_diff(cur, twin))


@settings(max_examples=80, deadline=None)
@given(_masks(), st.integers(0, 2**16))
def test_diff_carries_its_exact_wire_size(mask, seed):
    """The size ``make_diff`` measures from its run bounds is the run walk
    and the model's mask rule: empty, full, single-word, alternating,
    first- and last-word and random masks alike."""
    cur, twin = _page_pair(mask, seed)
    diff = make_diff(cur, twin)
    assert diff.nbytes == diff_nbytes(diff) == mask_diff_nbytes(mask)


def test_joined_diffs_add_their_sizes():
    """A same-interval extension joins two diffs: the runs concatenate
    and the sizes add."""
    twin = page(0)
    first, second = twin.copy(), twin.copy()
    first[0:8] = 1
    second[100:104] = 2
    second[4092:4096] = 3
    a, b = make_diff(first, twin), make_diff(second, twin)
    joined = a + b
    assert isinstance(joined, Diff) and list(joined) == list(a) + list(b)
    assert joined.nbytes == a.nbytes + b.nbytes == diff_nbytes(joined)


# --------------------------------------------------------------------- #
# the write trap's twin backings (repro.tmk.protocol): a writable copy,
# the shared read-only zero page and a read-only array over the page's
# bytes must encode every page identically

@settings(max_examples=80, deadline=None)
@given(st.booleans(), _masks(), st.integers(0, 2**16))
def test_twin_backing_does_not_change_the_diff(zero_twin, mask, seed):
    """Random, all-zero, fully changed and sparse pages alike."""
    cur, twin = _page_pair(mask, seed)
    if zero_twin:
        cur ^= twin                          # the same words, changed from 0
        twin = np.zeros(PAGE, dtype=np.uint8)
    backings = [twin.copy(), np.frombuffer(twin.tobytes(), dtype=np.uint8)]
    if zero_twin:
        backings.append(ZERO_TWIN)
    encoded = [[(off, bytes(data)) for off, data in make_diff(cur, backing)]
               for backing in backings]
    assert encoded == [reference_diff(cur, twin)] * len(backings)
