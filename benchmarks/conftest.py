"""The reproduction benchmarks' one document.

Each ``benchmarks/test_*.py`` asserts the paper's claims for one table or
figure (see DESIGN.md §4) over the session's single
:func:`repro.eval.reproduce.reproduce` run at the ``bench`` preset: the
paper's array shapes with reduced iteration counts (virtual time is
measured, so fewer iterations change absolute numbers, not comparisons).
The run rewrites ``benchmarks/results/*.txt``, exactly as
``python -m repro reproduce`` does; that command's ``--preset paper``
runs the full Table 1 sizes.
"""

import pytest

from repro.eval.reproduce import reproduce


@pytest.fixture(scope="session")
def doc():
    """Every distinct run the fourteen archives read, run once."""
    return reproduce(preset="bench")
