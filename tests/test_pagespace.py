"""Unit + property tests for the shared address space (repro.tmk.pagespace)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.machine import PAGE_SIZE
from repro.tmk.pagespace import ArrayHandle, SharedSpace, normalize_region


def test_alloc_page_aligned():
    space = SharedSpace()
    a = space.alloc("a", (10,), np.float32)
    b = space.alloc("b", (10,), np.float32)
    assert a.offset == 0
    assert b.offset == PAGE_SIZE          # padded to the next page
    assert space.npages == 2


def test_duplicate_name_rejected():
    space = SharedSpace()
    space.alloc("a", (4,), np.float32)
    with pytest.raises(ValueError):
        space.alloc("a", (4,), np.float32)


def test_bad_shape_rejected():
    space = SharedSpace()
    with pytest.raises(ValueError):
        space.alloc("z", (0, 4), np.float32)


def test_handle_properties():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)   # 16 KB = 4 pages
    assert h.nbytes == 16 * 256 * 4
    assert h.first_page == 0
    assert h.last_page == 3
    assert list(h.pages()) == [0, 1, 2, 3]
    assert space["m"] is h
    assert "m" in space and "q" not in space


def test_region_pages_full_array():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    assert h.region_pages((slice(None), slice(None))).tolist() == [0, 1, 2, 3]


def test_region_pages_contiguous_rows():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)   # row = 1 KB, 4 rows/page
    assert h.region_pages((slice(0, 4),)).tolist() == [0]
    assert h.region_pages((slice(4, 8),)).tolist() == [1]
    assert h.region_pages((slice(3, 5),)).tolist() == [0, 1]


def test_region_pages_column_slice_touches_every_row_page():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    pages = h.region_pages((slice(None), slice(0, 4))).tolist()
    assert pages == [0, 1, 2, 3]   # strided over all pages


def test_region_pages_int_index():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    assert h.region_pages((8,)).tolist() == [2]
    assert h.region_pages((-1,)).tolist() == [3]


def test_region_pages_empty_region():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    assert h.region_pages((slice(4, 4),)).size == 0


def test_region_pages_3d_middle_slice():
    space = SharedSpace()
    h = space.alloc("c", (4, 8, 128), np.float64)  # 32 KB = 8 pages
    # (Full, Span, Full): strided runs of 2*128*8 = 2 KB every 8 KB
    pages = h.region_pages((slice(None), slice(0, 2), slice(None))).tolist()
    assert pages == [0, 2, 4, 6]


def test_element_pages_scattered():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    # element 0 -> page 0; element 1024 (row 4) -> page 1
    assert h.element_pages([0, 4 * 256]).tolist() == [0, 1]


def test_element_pages_with_span():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    # a whole-row span starting at row 3 crosses into page 1
    assert h.element_pages([3 * 256], elem_span=512).tolist() == [0, 1]


def test_element_pages_empty():
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    assert h.element_pages([]).size == 0


def test_normalize_region_variants():
    shape = (8, 8)
    assert normalize_region((slice(None),), shape) == ((0, 8), (0, 8))
    assert normalize_region((2,), shape) == ((2, 3), (0, 8))
    assert normalize_region((-1, slice(1, 3)), shape) == ((7, 8), (1, 3))
    assert normalize_region((slice(5, 99),), shape) == ((5, 8), (0, 8))


def test_normalize_region_rejects_strides_and_bad_rank():
    with pytest.raises(ValueError):
        normalize_region((slice(0, 8, 2),), (8,))
    with pytest.raises(ValueError):
        normalize_region((1, 2, 3), (8, 8))
    with pytest.raises(IndexError):
        normalize_region((9,), (8,))


def region_nbytes(region, shape: tuple, itemsize: int) -> int:
    """Payload size of a region in bytes."""
    return math.prod(hi - lo for lo, hi in normalize_region(region, shape)) \
        * itemsize


def test_region_nbytes():
    assert region_nbytes((slice(0, 4), slice(0, 8)), (16, 256), 4) == 128
    assert region_nbytes((3,), (16, 256), 4) == 1024


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 24),
    cols=st.integers(1, 300),
    r0=st.integers(0, 23),
    r1=st.integers(0, 24),
    c0=st.integers(0, 299),
    c1=st.integers(0, 300),
)
def test_region_pages_matches_bruteforce(rows, cols, r0, r1, c0, c1):
    """The vectorized page math equals element-by-element enumeration."""
    r0, r1 = min(r0, rows - 1), min(r1, rows)
    c0, c1 = min(c0, cols - 1), min(c1, cols)
    space = SharedSpace()
    space.alloc("pad", (3,), np.float64)   # shift offsets off zero
    h = space.alloc("m", (rows, cols), np.float32)
    got = h.region_pages((slice(r0, r1), slice(c0, c1))).tolist()
    expect = set()
    for r in range(r0, r1):
        for c in range(c0, c1):
            byte = h.offset + (r * cols + c) * 4
            expect.add(byte // PAGE_SIZE)
            expect.add((byte + 3) // PAGE_SIZE)
    assert got == sorted(expect)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 16 * 256 - 1), max_size=40),
       st.integers(1, 300))
def test_element_pages_matches_bruteforce(indices, span):
    space = SharedSpace()
    h = space.alloc("m", (16, 256), np.float32)
    got = h.element_pages(indices, elem_span=span).tolist()
    expect = set()
    for idx in indices:
        lo = h.offset + idx * 4
        hi = lo + span * 4 - 1
        expect.update(range(lo // PAGE_SIZE, hi // PAGE_SIZE + 1))
    assert got == sorted(expect)
