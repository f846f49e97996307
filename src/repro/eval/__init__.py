"""Evaluation harness: runs every variant of every application and
regenerates each table and figure of the paper (see DESIGN.md §4).

Import the submodule you need (``repro.eval.reproduce``, ``chaos``,
``racecheck``, ``sweep``, ``tables``, ...); this package re-exports
nothing.  ``repro.eval.constants`` is a leaf the :mod:`repro.api`
registry depends on, so this ``__init__`` must stay free of imports —
the harness modules import ``repro.api`` right back.
"""
