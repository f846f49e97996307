"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run APP VARIANT``      run one application variant and print its metrics
``compare APP``          run all four variants of one application
``reproduce``            regenerate the paper's 14 archived tables/figures
``sweep``                analytic model at 8-1024 nodes (extended tables)
``explain APP``          print both compilers' compilation reports
``racecheck APP VARIANT``  fuzz schedules + happens-before race detection
``chaos``                sweep fault seeds; assert numerics vs fault-free
``serve``                persistent worker-pool run service (JSON lines)
``fleet``                front N remote serve hosts behind one service
``lint [APP...]``        statically verify the IR programs (docs/LINT.md)
``list``                 list applications, variants and presets

Every command that runs programs goes through the unified
:mod:`repro.api` — it builds :class:`~repro.api.RunRequest` values; the
app/variant argument choices come from :mod:`repro.api.registry`.  A
command that takes ``--jobs``/``--fleet`` gets its tier as
``args.service``, opened once in :func:`main` and handed to the
:mod:`repro.eval` harness.

Examples::

    python -m repro run igrid spf -n 8 --preset bench --stats
    python -m repro run jacobi spf -n 64 --mode model --preset test
    python -m repro sweep --apps jacobi --nodes 8 16 64 --out sweep.json
    python -m repro compare jacobi --preset test
    python -m repro explain mgs
    python -m repro racecheck igrid spf --seeds 5
    python -m repro chaos --seeds 3 --apps jacobi mgs --out chaos.json
    python -m repro serve --port 7590 --workers 4
    python -m repro fleet --host h1:7590 --host h2:7590 --probe
    python -m repro sweep --apps jacobi --fleet h1:7590 --fleet h2:7590
    python -m repro reproduce --jobs 2
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys

from repro.api.execute import execute
from repro.api.registry import (APPS, DSM_VARIANTS, FIGURE_VARIANTS, PAPER,
                                PRESETS, VARIANTS)
from repro.api.types import RunRequest, machine_from_doc
from repro.apps.common import get_app
from repro.sim.faults import DEFAULT_RATES

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser, preset: str = "bench",
                why: str = "") -> None:
    parser.add_argument("-n", "--nprocs", type=int, default=8,
                        help="simulated processors (default 8, the paper's)")
    parser.add_argument("--preset", default=preset, choices=list(PRESETS),
                        help=f"problem size preset (default {preset}{why})")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="retire runs through a worker pool of this "
                             "size (default 1: serial in-process, "
                             "bit-for-bit the historical behaviour)")
    parser.add_argument("--fleet", action="append", default=None,
                        metavar="HOST:PORT", dest="fleet",
                        help="retire runs across remote `repro serve "
                             "--port PORT` hosts (repeat per host); "
                             "results stay bit-identical to the serial loop")


def _service_for(jobs: int, fleet):
    """The tier ``--jobs``/``--fleet`` pick, as a context that closes it;
    ``jobs <= 1`` gives ``None``, which every harness runs in-process."""
    if fleet:
        from repro.serve import FleetService
        return FleetService(fleet)
    if jobs > 1:
        from repro.serve import RunService
        return RunService(workers=jobs)
    return contextlib.nullcontext()


def _add_report(parser: argparse.ArgumentParser, what: str,
                unit: str = "") -> None:
    parser.add_argument("--out", default=None,
                        help=f"write the {what} as JSON to this path")
    if unit:
        parser.add_argument("--quiet", action="store_true",
                            help=f"suppress per-{unit} progress on stderr")


def _add_listen(parser: argparse.ArgumentParser, bind: str) -> None:
    parser.add_argument("--port", type=int, default=None,
                        help="listen on this TCP port (0 = ephemeral); "
                             "default: speak the protocol over stdio")
    parser.add_argument(bind, default="127.0.0.1",
                        help="bind address for --port (default 127.0.0.1)")


def _add_machine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", nargs="*", default=None,
                        metavar="KEY=VALUE",
                        help="override SP2 machine parameters, e.g. "
                             "latency=5e-5 byte_time=4e-8")


def _progress(args):
    """The per-run progress sink: stderr lines, or None under --quiet."""
    return None if args.quiet else lambda m: print(m, file=sys.stderr)


def _finish(args, text: str, doc, ok: bool = True) -> int:
    """A reporting command's last step: print its report, write its
    document to ``--out`` (and say where), exit 0 if it passed, else 1."""
    print(text)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"results -> {args.out}")
    return 0 if ok else 1


def _parse_machine(pairs):
    """``KEY=VALUE`` pairs -> machine-override dict (RunRequest form),
    checked by ``MachineModel`` (finite, >= 0, integral where an int)."""
    from dataclasses import asdict

    from repro.sim.machine import SP2_MODEL

    if not pairs:
        return None
    defaults = asdict(SP2_MODEL)
    del defaults["nprocs"]          # the request carries the count
    overrides = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if key == "nprocs":
            raise SystemExit("--machine nprocs: set the processor count "
                             "with -n/--nprocs (--nodes in a sweep)")
        try:
            value = float(val)
        except ValueError:
            value = None
        if not sep or key not in defaults or value is None:
            raise SystemExit(
                f"bad --machine override {pair!r} (expected KEY=NUMBER with "
                f"KEY one of {', '.join(sorted(defaults))})")
        integral = isinstance(defaults[key], int) and value.is_integer()
        overrides[key] = int(value) if integral else value
    try:
        SP2_MODEL.with_(**overrides)
    except ValueError as exc:
        raise SystemExit(f"bad --machine override: {exc}")
    return overrides


def cmd_run(args) -> int:
    from repro.compiler.model import ModelUnsupportedVariant

    request = RunRequest(app=args.app, variant=args.variant,
                         nprocs=args.nprocs, preset=args.preset,
                         mode=args.mode,
                         machine=_parse_machine(args.machine))
    try:
        res = execute(request)
    except ModelUnsupportedVariant:
        from repro.api.registry import MODELED_VARIANTS
        print(f"variant {args.variant!r} has no analytic model "
              f"(modeled variants: {', '.join(MODELED_VARIANTS)}); "
              f"use --mode sim", file=sys.stderr)
        return 2
    print(res.row())
    if res.dsm is not None:
        print("dsm:", res.dsm.summary())
        if args.stats:
            from repro.tmk.diagnostics import fastpath_summary
            print(fastpath_summary(res.dsm))
    paper = PAPER.get(args.app)
    if paper and args.variant in paper.speedups \
            and paper.speedups[args.variant]:
        print(f"paper's 8-processor speedup for this variant: "
              f"{paper.speedups[args.variant]}")
    return 0


def cmd_compare(args) -> int:
    from repro.eval.reproduce import run_all_variants

    results = run_all_variants(args.app, nprocs=args.nprocs,
                               preset=args.preset, service=args.service)
    print(f"{args.app} ({PAPER[args.app].problem_size}), "
          f"{args.nprocs} simulated processors, preset {args.preset!r}\n")
    for variant in FIGURE_VARIANTS:
        print(results[variant].row())
    return 0


def cmd_reproduce(args) -> int:
    from repro.eval.reproduce import RESULTS_DIR, format_report, reproduce

    results_dir = args.results_dir or RESULTS_DIR
    doc = reproduce(preset=args.preset, service=args.service,
                    results_dir=results_dir,
                    progress=lambda m: print(m, file=sys.stderr))
    print(format_report(doc))
    print(f"archives -> {results_dir}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    from repro.eval.sweep import format_sweep_tables, run_sweep

    doc = run_sweep(apps=args.apps or None, variants=args.variants or None,
                    nodes=tuple(args.nodes), preset=args.preset,
                    machine=machine_from_doc(_parse_machine(args.machine)),
                    service=args.service, progress=_progress(args))
    return _finish(args, format_sweep_tables(doc), doc)


def cmd_explain(args) -> int:
    from repro.compiler.report import spf_report, xhpf_report
    from repro.compiler.spf import SpfOptions

    spec = get_app(args.app)
    program = spec.build_program(spec.params(args.preset))
    options = SpfOptions()
    if args.optimized:
        if spec.spf_opt_options is None:
            print(f"note: the paper applies no hand optimization to "
                  f"{args.app}; showing the baseline", file=sys.stderr)
        else:
            options = spec.spf_opt_options()
    print(spf_report(program, nprocs=args.nprocs, options=options))
    print()
    print(xhpf_report(spec.build_program(spec.params(args.preset)),
                      nprocs=args.nprocs))
    return 0


def cmd_racecheck(args) -> int:
    from repro.compiler.report import source_lookup
    from repro.eval.racecheck import cross_check_app, racecheck_app

    if args.cross_check:
        report = cross_check_app(args.app, seeds=args.seeds,
                                 nprocs=args.nprocs, preset=args.preset,
                                 mutations=args.mutations,
                                 service=args.service)
        return _finish(args, report.format(), report.as_doc(), report.ok)

    report = racecheck_app(args.app, args.variant, seeds=args.seeds,
                           nprocs=args.nprocs, preset=args.preset,
                           service=args.service)
    lookup = None
    if args.variant.startswith("spf"):
        spec = get_app(args.app)
        lookup = source_lookup(spec.build_program(spec.params(args.preset)),
                               nprocs=args.nprocs)
    return _finish(args, report.format(lookup), None, report.ok)


def cmd_chaos(args) -> int:
    from dataclasses import replace

    from repro.eval.chaos import chaos_sweep
    from repro.sim.faults import FaultPlan

    plan = FaultPlan.default()
    chosen = {name: getattr(args, name) for name in vars(plan.rates)
              if getattr(args, name) is not None}
    try:
        plan = replace(plan, rates=replace(plan.rates, **chosen),
                       stalls=() if args.no_stall else plan.stalls)
    except ValueError as exc:
        raise SystemExit(f"bad fault rate: {exc}")
    report = chaos_sweep(apps=args.apps, variants=args.variants,
                         seeds=args.seeds, nprocs=args.nprocs,
                         preset=args.preset, plan=plan,
                         service=args.service, progress=_progress(args))
    return _finish(args, report.format(), report.as_doc(), report.ok)


def cmd_lint(args) -> int:
    from repro.eval.lintreport import lint_registry

    for app in args.apps:
        if app not in APPS:
            print(f"unknown application {app!r} (choose from "
                  f"{', '.join(APPS)})", file=sys.stderr)
            return 2
    if args.explain is not None:
        from repro.compiler import depend

        if len(args.apps) != 1:
            print("lint --explain LOOP needs exactly one APP "
                  "(the loop family to explain lives in one program)",
                  file=sys.stderr)
            return 2
        spec = get_app(args.apps[0])
        program = spec.build_program(spec.params(args.preset))
        report = depend.analyze_program(program, nprocs=args.nprocs)
        print(report.explain(args.explain or None))
        return 0
    summary = lint_registry(apps=args.apps or None, nprocs=args.nprocs,
                            preset=args.preset,
                            backends=tuple(args.backends),
                            shadow=not args.no_shadow,
                            traffic=not args.no_traffic,
                            suppress=tuple(args.suppress),
                            progress=_progress(args))
    strict_fail = args.strict and any(a.report.warnings
                                      for a in summary.apps)
    return _finish(args, summary.format(verbose=args.verbose
                                        or not summary.ok),
                   summary.as_doc(), summary.ok and not strict_fail)


def _speak(name: str, service, bind: str, port, detail: str) -> None:
    """Serve ``service``'s wire protocol on stdio (``port`` None) or on
    TCP ``bind:port`` until the session ends."""
    from repro.serve import WireServer, serve_stdio

    if port is None:
        verdict = serve_stdio(service, sys.stdin, sys.stdout)
        print(f"{name}: session ended ({verdict})", file=sys.stderr)
        return
    server = WireServer(service, host=bind, port=port)
    print(f"{name}: listening on {server.host}:{server.port} ({detail})",
          file=sys.stderr)
    try:
        server.serve_forever()
    finally:
        server.close()


def cmd_serve(args) -> int:
    from repro.serve import DEFAULT_RUNNER, RunService

    service = RunService(workers=args.workers,
                         runner=args.runner or DEFAULT_RUNNER,
                         max_backlog=args.max_backlog)
    try:
        _speak("serve", service, args.host, args.port,
               f"{args.workers} worker(s)")
    finally:
        service.close()
    return 0


def cmd_fleet(args) -> int:
    from repro.serve import FleetService

    kwargs = {} if args.retries is None else {"retries": args.retries}
    try:
        fleet = FleetService(args.host, **kwargs)
    except (ConnectionError, ValueError) as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    try:
        if args.probe:
            health = fleet.probe()
            for label, info in sorted(health.items()):
                state = "alive" if info["alive"] else "DOWN"
                rtt = (f" rtt {info['last_rtt_ms']:.1f}ms"
                       if info.get("last_rtt_ms") is not None else "")
                print(f"fleet: {label} {state} "
                      f"workers={info.get('workers', 0)}{rtt}")
            return 0 if all(h["alive"] for h in health.values()) else 1
        hosts = (f"{len(args.host)} host(s), {fleet.live_workers()} "
                 f"remote worker(s)")
        if args.port is None:
            print(f"fleet: {hosts}; speaking the protocol on stdio",
                  file=sys.stderr)
        _speak("fleet", fleet, args.bind, args.port, hosts)
    finally:
        fleet.close()
    return 0


def cmd_list(_args) -> int:
    from repro.api import registry

    print("applications:")
    for card in registry.apps():
        print(f"  {card.name:8s} {card.kind:10s} "
              f"{card.problem_size:35s} "
              f"presets: {', '.join(card.presets)}")
    print("variants:")
    for info in registry.variants():
        badge = " [model]" if info.modeled else ""
        print(f"  {info.name:8s} {info.kind:4s} {info.source:9s} "
              f"{info.description}{badge}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cox et al. (IPPS 1997): software DSM "
                    "as a target for parallelizing compilers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one application variant")
    p.add_argument("app", choices=APPS)
    p.add_argument("variant", choices=[v for v in VARIANTS if v != "seq"]
                   + ["seq"])
    p.add_argument("--stats", action="store_true",
                   help="print fast-path/coherence counters (DSM variants)")
    p.add_argument("--mode", default="sim", choices=["sim", "model"],
                   help="sim: event simulation (default); model: analytic "
                        "prediction from repro.compiler.model, flagged "
                        "[model] in the output")
    _add_machine(p)
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="run all variants of an application")
    p.add_argument("app", choices=APPS)
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "reproduce",
        help="run every distinct request the paper's 14 tables/figures "
             "read once, write them to benchmarks/results and print the "
             "report")
    p.add_argument("--preset", default="bench", choices=list(PRESETS),
                   help="problem size preset (default bench; the runs "
                        "are on the paper's 8 processors)")
    p.add_argument("--results-dir", default=None,
                   help="write the archives here (default: "
                        "benchmarks/results)")
    _add_jobs(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser(
        "sweep",
        help="run the analytic model across node counts and emit the "
             "extended speedup/traffic tables (all results are modeled)")
    p.add_argument("--apps", nargs="*", default=None, choices=APPS,
                   help="applications to model (default: all)")
    p.add_argument("--variants", nargs="*", default=None,
                   choices=["spf", "spf_old", "xhpf", "xhpf_ie"],
                   help="modeled variants (default: spf spf_old xhpf "
                        "xhpf_ie)")
    p.add_argument("--nodes", nargs="*", type=int,
                   default=[8, 16, 64, 256, 1024],
                   help="node counts to model (default: 8 16 64 256 1024)")
    p.add_argument("--preset", default="test",
                   choices=list(PRESETS),
                   help="problem size preset (default test; the model is "
                        "validated against the simulator at this size)")
    _add_machine(p)
    _add_report(p, "sweep document", "point")
    _add_jobs(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("explain", help="print the compilers' decisions")
    p.add_argument("app", choices=APPS)
    p.add_argument("--optimized", action="store_true",
                   help="show the hand-optimized SPF configuration")
    _add_common(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser(
        "racecheck",
        help="schedule-fuzz a DSM variant and report data races")
    p.add_argument("app", choices=APPS)
    p.add_argument("variant", nargs="?", default="spf",
                   choices=list(DSM_VARIANTS))
    p.add_argument("--seeds", type=int, default=5,
                   help="number of schedule seeds to fuzz (default 5)")
    _add_common(p, "test", ": the harness runs the app once per seed")
    p.add_argument("--cross-check", action="store_true",
                   help="cross-validate the static depend verdicts "
                        "against the dynamic detector (+ seeded mutation "
                        "flips) instead of a plain fuzz run")
    p.add_argument("--mutations", type=int, default=3,
                   help="seeded dependence injections for --cross-check "
                        "(default 3)")
    _add_report(p, "cross-check verdict (needs --cross-check)")
    _add_jobs(p)
    p.set_defaults(fn=cmd_racecheck)

    p = sub.add_parser(
        "chaos",
        help="run app x variant under injected network faults and assert "
             "the numerics match the fault-free run")
    p.add_argument("--seeds", type=int, default=3,
                   help="number of fault seeds per pair (default 3)")
    p.add_argument("--apps", nargs="*", default=None, choices=APPS,
                   help="applications to sweep (default: all)")
    p.add_argument("--variants", nargs="*", default=None,
                   choices=[v for v in VARIANTS if v != "seq"],
                   help="variants to sweep (default: spf tmk xhpf pvme)")
    for name, what in (("drop", "drop"), ("dup", "duplication"),
                       ("reorder", "reordering"), ("delay", "extra-delay")):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"per-message {what} probability (default "
                            f"{getattr(DEFAULT_RATES, name)})")
    p.add_argument("--no-stall", action="store_true",
                   help="disable the default node-stall window")
    _add_report(p, "sweep report", "run")
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="persistent worker-pool run service (JSON lines over stdio "
             "or TCP; see docs/API.md for the protocol)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes in the pool (default 4)")
    _add_listen(p, "--host")
    p.add_argument("--runner", default=None,
                   help=argparse.SUPPRESS)   # test hook: module:attr path
    p.add_argument("--max-backlog", type=int, default=None,
                   help="admission-control cap on queued + in-flight "
                        "requests; beyond it new requests fail fast with "
                        "error_kind=Rejected (default: unbounded)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="front N remote `repro serve --port PORT` hosts behind one "
             "service (same wire protocol; failover with requeue)")
    p.add_argument("--host", action="append", required=True,
                   metavar="HOST:PORT",
                   help="a remote serve endpoint (repeat per host)")
    _add_listen(p, "--bind")
    p.add_argument("--retries", type=int, default=None,
                   help="connect/send retries before a host is declared "
                        "lost (default 3)")
    p.add_argument("--probe", action="store_true",
                   help="health-check every host (exit 1 if any is down) "
                        "instead of serving")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "lint",
        help="statically verify IR programs (footprints, barriers, "
             "false sharing, traffic)")
    p.add_argument("apps", nargs="*", metavar="APP",
                   help=f"applications to lint (default: all of "
                        f"{', '.join(APPS)})")
    p.add_argument("--backends", nargs="*", default=["spf", "xhpf"],
                   choices=["spf", "xhpf"],
                   help="backend-specific rule sets to apply")
    p.add_argument("--no-shadow", action="store_true",
                   help="skip the shadow-execution footprint sanitizer")
    p.add_argument("--no-traffic", action="store_true",
                   help="skip the DSM traffic estimate (it runs kernels)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings, not just errors")
    p.add_argument("--suppress", nargs="*", default=[],
                   help="suppress findings matching 'rule' or "
                        "'rule:stmt' globs (see docs/LINT.md)")
    p.add_argument("--verbose", action="store_true",
                   help="print every finding, not just the badge table")
    p.add_argument("--explain", default=None, metavar="LOOP",
                   help="dump the symbolic dependence evidence for one "
                        "loop family of APP (pass '' for every family); "
                        "see docs/DEPEND.md")
    _add_report(p, "lint report", "app")
    _add_common(p, "test", "; the rules are size-independent, only the "
                           "false-sharing geometry changes")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("list", help="list applications and variants")
    p.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    if args.command == "racecheck" and args.out and not args.cross_check:
        parser.error("racecheck --out writes the --cross-check verdict; "
                     "add --cross-check or drop --out")
    try:
        service = _service_for(getattr(args, "jobs", 1),
                               getattr(args, "fleet", None))
    except ConnectionError as exc:       # no --fleet host answered
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    with service as args.service:
        return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
