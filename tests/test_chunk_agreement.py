"""Cross-consumer agreement: one partition, asked for by everyone.

For every registered application and several processor counts, the chunks
the SPF backend *executes* are the chunks the analytic model replays, the
lint false-sharing rule lowers to pages and the dependence engine builds
its chunk sets from.  The ``Chunk`` values themselves are compared, not
their effects — a consumer that re-derived the partition on its own would
either miss here or disagree on some (application, n).
"""

import pytest

from repro.api.registry import app_names
from repro.apps.common import get_app
from repro.compiler import depend, lint
from repro.compiler.model import _SpfModel
from repro.compiler.partition import Chunk
from repro.compiler.spf import SpfOptions, compile_spf, run_spf
from repro.sim.machine import SP2_MODEL
from tests.conftest import parallel_loops


def family(name: str) -> str:
    return name.split("[")[0]


@pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
@pytest.mark.parametrize("app", app_names())
def test_every_consumer_sees_the_chunks_that_run(app, nprocs, monkeypatch):
    spec = get_app(app)

    def build():
        return spec.build_program(spec.params("test"))

    ran: set = set()          # (loop name, Chunk) of every kernel call site
    real_run = Chunk.run

    def spy_run(self, loop, views):
        ran.add((loop.name, self))
        return real_run(self, loop, views)

    monkeypatch.setattr(Chunk, "run", spy_run)
    run_spf(build(), nprocs)
    executed, ran = ran, set()
    assert {name for name, _chunk in executed} >= \
        {loop.name for loop in parallel_loops(build())}

    # the analytic model replays exactly the executed chunks
    _SpfModel(build(), nprocs, SP2_MODEL.with_(nprocs=nprocs),
              SpfOptions()).run()
    assert ran == executed

    # lint's false-sharing rule asks the executable for them
    exe = compile_spf(build(), nprocs)
    asked: set = set()
    real_chunk = exe.chunk

    def spy_chunk(loop, pid):
        chunk = real_chunk(loop, pid)
        asked.add((loop.name, chunk))
        return chunk

    exe.chunk = spy_chunk
    lint._check_false_sharing(exe)
    assert asked <= executed
    assert {family(name) for name, _chunk in asked} == \
        {family(loop.name) for loop in parallel_loops(exe.program)}

    # the dependence engine's chunk sets (barrier rule and fuse_loops
    # planning) are built from them
    analysed: set = set()
    real_sets = depend.chunk_sets

    def spy_sets(loop, which, chunk, program):
        analysed.add((loop.name, chunk))
        return real_sets(loop, which, chunk, program)

    monkeypatch.setattr(depend, "chunk_sets", spy_sets)
    lint._check_redundant_barriers(exe)
    fused = compile_spf(build(), nprocs, SpfOptions(fuse_loops=True))
    assert analysed <= executed
    assert analysed or all(len(unit.loops) < 2 for unit in fused.units)
