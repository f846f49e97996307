"""One workload child: a fresh process that sets up, measures and verifies.

``run.py`` starts this file once per measurement process and reads one
JSON document from the last line of its standard output.  The child pins
itself to one CPU *before* it imports ``repro`` (the placement rule: the
engine hands a baton between threads, and letting the OS move them across
cores costs a multiple of any code change), performs the cold pass that
is the workload's set-up, runs whole rounds until its time slice is used,
and checks every result.

Modes (``spec["mode"]``): ``e2e`` — untraced end-to-end measurement;
``trace`` — one traced and one untraced round, the workload-derived layer
metrics and (when asked) the micro-kernels; ``golden`` — the plain serial
pass that regenerates ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

ALL_CPUS = sorted(os.sched_getaffinity(0))

HERE = os.path.dirname(os.path.abspath(__file__))

from summary import hi_percentile  # noqa: E402
from workloads import WORKLOADS, Key, golden_keys  # noqa: E402

def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def digest_of(result) -> str:
    """sha256 over the run's fingerprint without tag and signature: the
    simulated statistics, which must be bit-identical on any host.  The
    signature is compared numerically (its last bits may follow the
    host's SIMD width)."""
    doc = result.fingerprint()
    doc.pop("tag", None)
    doc.pop("signature", None)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def tree_cpu_s() -> float:
    """CPU seconds of this process and its live pool workers."""
    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


# ---------------------------------------------------------------------- #
# drivers: how a round of keys reaches the program

class InprocDriver:
    """Closed loop through ``repro.api.execute`` with one warm
    ``ProgramCache``: the next request is issued when the previous
    returns."""

    def __init__(self, workload):
        self.workload = workload
        self.cpu = ALL_CPUS[-1]
        self.tracer = None
        pin(self.cpu)

    def setup(self) -> list:
        import repro.api
        self.api = repro.api
        self.cache = repro.api.ProgramCache()
        return self.run_round(list(self.workload.keys))[1]

    def run_one(self, key, request_id=None):
        request = key.request()
        if self.tracer is not None:
            self.tracer.request_id = request_id
        t0 = time.perf_counter()
        try:
            # resolved through the package so a traced round sees the wrapper
            result = self.api.execute(request, self.cache)
        except Exception as exc:      # noqa: BLE001 - counted, not fatal
            result = f"{type(exc).__name__}: {exc}"
        return key, time.perf_counter() - t0, result

    def run_round(self, keys: list, round_no: int = 0):
        t0 = time.perf_counter()
        out = [self.run_one(key, f"{round_no}:{i}")
               for i, key in enumerate(keys)]
        return time.perf_counter() - t0, out

    def placement(self) -> dict:
        return {"process": self.cpu}

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class ServeDriver:
    """One ``RunService.stream()`` per round.  The parent sits on the
    lowest CPU and each pool worker is pinned to its own CPU from outside,
    once the pool is up; never more workers than CPUs."""

    def __init__(self, workload):
        self.workload = workload
        self.cpu = ALL_CPUS[0]
        self.workers = min(len(ALL_CPUS), 4)
        self.tracer = None
        self.svc = None
        self.worker_cpus: dict = {}
        pin(self.cpu)

    def setup(self) -> list:
        from repro.serve import RunService
        self.svc = RunService(workers=self.workers)
        self.pin_workers()
        # the warm batch: every distinct key once, so each is compiled
        # somewhere before the first timed request
        return self.run_round(list(self.workload.keys))[1]

    def pin_workers(self) -> None:
        procs = sorted(multiprocessing.active_children(),
                       key=lambda p: p.pid)
        for i, proc in enumerate(procs):
            cpu = ALL_CPUS[i % len(ALL_CPUS)]
            os.sched_setaffinity(proc.pid, {cpu})
            self.worker_cpus[proc.name] = cpu

    def run_round(self, keys: list, round_no: int = 0):
        tracer = self.tracer
        requests = [key.request(tag=f"{round_no}:{i}")
                    for i, key in enumerate(keys)]
        if tracer is not None:
            docs = []
            for request in requests:
                tracer.request_id = request.tag
                with tracer.span("api.request_to_json"):
                    docs.append(request.to_json())
            tracer.request_id = None
        else:
            docs = requests
        results: list = [None] * len(keys)
        t0 = time.perf_counter()
        if tracer is None:
            for index, result in self.svc.stream(docs):
                results[index] = result
        else:
            with tracer.span("serve.stream") as stream_id:
                for index, result in self.svc.stream(docs):
                    results[index] = result
                    # the from_json span just closed belongs to this request
                    tracer.spans[-1]["request_id"] = requests[index].tag
                    tracer.add("serve.request", t0, time.perf_counter(),
                               stream_id, request_id=requests[index].tag,
                               nested=False)
        wall = time.perf_counter() - t0
        out = []
        for key, result in zip(keys, results):
            if result is None:
                out.append((key, 0.0, "no result for this request"))
            else:
                out.append((key, result.wall_s or 0.0, result))
        return wall, out

    def placement(self) -> dict:
        return {"parent": self.cpu, **self.worker_cpus}

    def counters(self) -> dict:
        return self.svc.counters()

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()


def make_driver(workload):
    return ServeDriver(workload) if workload.serve else InprocDriver(workload)


# ---------------------------------------------------------------------- #
# correctness: every result is checked, every failure counted

class Checker:
    """(a) ``ok``; (b) golden fingerprint digest and signature; (c) the
    sequential oracle, once per distinct sim key; (d) exactly-once on the
    service (a missing result arrives here as an error string)."""

    def __init__(self):
        from repro.apps.common import signatures_close
        self.close = signatures_close
        with open(os.path.join(HERE, "golden.json")) as fh:
            self.golden = json.load(fh)["keys"]
        self.attempted = 0
        self.failures: list = []
        self.oracle_checked = 0
        self._seq: dict = {}

    def check(self, key, result) -> None:
        self.attempted += 1
        why = None
        if isinstance(result, str):
            why = result
        elif not result.ok:
            why = f"{result.error_kind}: {result.error}"
        else:
            entry = self.golden.get(key.id)
            if entry is None:
                why = "no golden entry"
            elif digest_of(result) != entry["digest"]:
                why = "golden fingerprint mismatch"
            elif not self.close(result.signature, entry["signature"],
                                rtol=1e-9):
                why = "golden signature mismatch"
        if why is not None:
            self.failures.append(f"{key.id}: {why}")

    def check_round(self, out: list) -> None:
        for key, _dt, result in out:
            self.check(key, result)

    def oracle(self, out: list) -> None:
        """Numerics against the ``seq`` variant, which never touches
        ``sim``/``tmk``/``msg``.  Counted as one more attempted check per
        sim key."""
        from repro.api import ProgramCache, execute
        for key, _dt, result in out:
            if key.mode != "sim" or isinstance(result, str) or not result.ok:
                continue
            if (key.app, key.preset) not in self._seq:
                self._seq[key.app, key.preset] = execute(
                    Key(key.app, "seq", 1, key.preset).request(),
                    ProgramCache()).signature
            self.attempted += 1
            self.oracle_checked += 1
            if not self.close(result.signature,
                              self._seq[key.app, key.preset], rtol=1e-6):
                self.failures.append(f"{key.id}: numerics differ from seq")


# ---------------------------------------------------------------------- #
# modes

def hi_ratio(samples: dict):
    """Highest admissible percentile of sample / its key's median, pooled
    over keys — the jitter of a single request."""
    ratios = [v / statistics.median(values)
              for values in samples.values() for v in values]
    hi = hi_percentile(ratios)
    return (hi[1], hi[0], len(ratios)) if hi else (max(ratios), 100,
                                                    len(ratios))


MIN_ROUNDS = 2      # so every key has a second chance at a quiet host
PROBE_EVERY_S = 1.0


def measure_rounds(workload, driver, checker, spec, slice_s: float):
    """Whole rounds until the slice is used, and at least ``MIN_ROUNDS``.

    The host-speed probe runs before the first round, between rounds
    (about once a second) and after the last; only rounds are timed.
    """
    from kernels import host_spin

    walls, outs, probes = [], [], [host_spin()]
    measured, last_probe = 0.0, time.perf_counter()
    while True:
        keys = workload.round_requests(spec["seed"], spec["child"],
                                       len(walls))
        wall, out = driver.run_round(keys, len(walls))
        walls.append(wall)
        outs.append(out)
        measured += wall
        if (len(walls) >= MIN_ROUNDS
                and measured + measured / len(walls) > slice_s):
            break
        if time.perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(host_spin())
            last_probe = time.perf_counter()
    probes.append(host_spin())
    for out in outs:
        checker.check_round(out)
    return walls, outs, probes


def collect_samples(outs: list) -> dict:
    samples: dict = {}
    for out in outs:
        for key, dt, result in out:
            if not isinstance(result, str) and result.ok:
                samples.setdefault(key.id, []).append(dt)
    return samples


def run_e2e(spec: dict, workload) -> dict:
    driver = make_driver(workload)
    checker = Checker()
    try:
        cold = driver.setup()
        checker.check_round(cold)
        checker.oracle(cold)
        setup_s = time.monotonic() - spec["t_spawn"]

        counters0 = driver.counters()
        walls, outs, probes = measure_rounds(workload, driver, checker, spec,
                                             spec["slice_s"])
        counters = {k: v - counters0[k]
                    for k, v in driver.counters().items()}
    finally:
        driver.close()

    samples = collect_samples(outs)
    requests = sum(len(out) for out in outs)
    rusage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rusage / 1024.0,
        "requests": requests,
        "round_walls": walls, "round_requests": len(outs[0]),
        "attempted": checker.attempted, "failures": checker.failures,
        "oracle_checked": checker.oracle_checked,
        "samples": samples,
        "spin_s": probes,
        "placement": driver.placement(),
        "counters": counters,
    }


def run_trace(spec: dict, workload) -> dict:
    import kernels
    import spans
    from repro.api.types import RunResult

    tracer = spans.Tracer()

    def install():
        if workload.serve:
            tracer.wrap(RunResult, "from_json", "api.result_from_json")
        else:
            spans.install_inprocess(tracer)

    driver = make_driver(workload)
    checker = Checker()
    metrics: dict = {}
    try:
        # the traced cold pass is this child's set-up: build and compile
        # spans only exist on a cold cache
        driver.tracer = tracer
        install()
        try:
            cold = driver.setup()
        finally:
            tracer.unwrap_all()
            driver.tracer = None
        checker.check_round(cold)
        checker.oracle(cold)

        spin_before = kernels.host_spin()
        plain_walls, traced_walls, outs = [], [], []
        plain_cpu = 0.0
        counters: dict = {}
        for round_no in range(spec["rounds"]):
            keys = workload.round_requests(spec["seed"], 0, round_no)
            c0, counters0 = tree_cpu_s(), driver.counters()
            wall, out = driver.run_round(keys, round_no)
            plain_cpu += tree_cpu_s() - c0
            for k, v in driver.counters().items():
                counters[k] = counters.get(k, 0) + v - counters0[k]
            plain_walls.append(wall)
            outs.append(out)
            driver.tracer = tracer
            install()
            try:
                wall, out = driver.run_round(keys, round_no)
            finally:
                tracer.unwrap_all()
                driver.tracer = None
            traced_walls.append(wall)
            checker.check_round(out)
        for out in outs:
            checker.check_round(out)
        spin_after = kernels.host_spin()

        results = [r for out in outs for _k, _dt, r in out
                   if not isinstance(r, str)]
        plain_wall = sum(plain_walls)
        samples = collect_samples(outs)
        hits = sum(getattr(r.dsm, "fastpath_hits", 0) for r in results)
        misses = sum(getattr(r.dsm, "fastpath_misses", 0) for r in results)
        ratio, ratio_p, ratio_n = hi_ratio(samples)
        dispatched = len(results) if workload.serve else 0
        metrics.update({
            "sim.events_per_s": (sum(r.events for r in results) / plain_wall,
                                 "1/s", len(results)),
            "tmk.fastpath_hit_rate": (hits / (hits + misses)
                                      if hits + misses else 0.0,
                                      "ratio", hits + misses),
            "api.cache_hit_rate": (sum(1 for r in results if r.cache_hit)
                                   / len(results), "ratio", len(results)),
            "api.run_hi_ratio": (ratio, "ratio", ratio_n),
            "serve.affinity_hit_rate": (
                counters.get("affinity_hits", 0) / dispatched
                if dispatched else 0.0, "ratio", dispatched),
            "serve.steals": (float(counters.get("steals", 0)), "count",
                             dispatched),
            "host.cpu_share": (plain_cpu / plain_wall, "ratio",
                               len(results)),
            "trace.overhead_share": (
                statistics.median(traced_walls)
                / statistics.median(plain_walls) - 1.0, "ratio",
                len(traced_walls)),
            "host.spin_s": (statistics.median([spin_before, spin_after]),
                            "s", 2),
        })
        metrics.update(serve_tiers(workload, driver, spec, checker,
                                   60.0 * len(results) / plain_wall))
    finally:
        driver.close()

    if spec["kernels"]:
        metrics.update(kernels.run_all(spec["scale"], ALL_CPUS,
                                       min(len(ALL_CPUS), 4),
                                       spec["src_dir"]))
    if not workload.serve:
        spans.add_result_assembly(tracer)
    trace_path = os.path.join(spec["out_dir"], f"trace-{workload.name}.json")
    tracer.write(trace_path)
    return {
        "metrics": {name: {"value": v, "unit": u, "n": n}
                    for name, (v, u, n) in metrics.items()},
        "attempted": checker.attempted, "failures": checker.failures,
        "oracle_checked": checker.oracle_checked,
        "requests": checker.attempted - checker.oracle_checked,
        "spin_s": [spin_before, spin_after],
        "placement": driver.placement(),
        "span_self_s": tracer.self_times(),
        "span_total_s": tracer.total_times(),
        "spans": len(tracer.spans), "trace_file": trace_path,
        "run_hi_percentile": ratio_p,
    }


TIER_METRICS = (("serve.pool_efficiency", "ratio"),
                ("serve.wire_runs_per_min", "runs/min"),
                ("serve.fleet_runs_per_min", "runs/min"))


def serve_tiers(workload, driver, spec, checker, pool_rpm: float) -> dict:
    """serve_mix only: the same request list one tier further out each
    time — in-process, pool (measured by the caller), wire, fleet.  On the
    other workloads nothing is dispatched, so the three read zero."""
    if not workload.serve:
        return {name: (0.0, unit, 0) for name, unit in TIER_METRICS}
    from repro.api import ProgramCache, execute
    from repro.serve import FleetService, RunService, WireClient, WireServer

    keys = workload.round_requests(spec["seed"], 0, 0)
    requests = [key.request(tag=str(i)) for i, key in enumerate(keys)]

    # the same list in this one pinned process, on a warm cache
    cache = ProgramCache(max_entries=len(workload.keys))
    for key in workload.keys:
        execute(key.request(), cache)
    t0 = time.perf_counter()
    for request in requests:
        execute(request, cache)
    inproc_rpm = 60.0 * len(requests) / (time.perf_counter() - t0)

    def through(run_batch) -> float:
        t0 = time.perf_counter()
        batch = run_batch(requests)
        wall = time.perf_counter() - t0
        checker.check_round([(k, 0.0, r)
                             for k, r in zip(keys, batch.results)])
        return 60.0 * len(requests) / wall

    with contextlib.ExitStack() as stack:
        def host(pool) -> str:
            server = WireServer(pool)
            server.serve_in_thread()
            stack.callback(server.close)
            return f"{server.host}:{server.port}"

        with WireClient(*host(driver.svc).split(":")) as client:
            wire_rpm = through(client.run_batch)

        # a fleet of two in-thread hosts sharing the same number of workers
        driver.close()
        driver.svc = None
        pools = [stack.enter_context(RunService(workers=max(1, n)))
                 for n in (driver.workers - driver.workers // 2,
                           driver.workers // 2)]
        driver.pin_workers()
        fleet = stack.enter_context(FleetService([host(p) for p in pools]))
        fleet.run_batch([k.request() for k in workload.keys])      # warm
        fleet_rpm = through(fleet.run_batch)
    values = (pool_rpm / (driver.workers * inproc_rpm), wire_rpm, fleet_rpm)
    return {name: (value, unit, len(requests))
            for (name, unit), value in zip(TIER_METRICS, values)}


def run_golden() -> dict:
    """Plain serial in-process pass: one fresh cache, every key once."""
    from repro.api import ProgramCache, execute

    pin(ALL_CPUS[-1])
    cache = ProgramCache(max_entries=256)
    keys = {}
    for key in golden_keys():
        result = execute(key.request(), cache)
        if not result.ok:
            raise RuntimeError(f"{key.id}: {result.error}")
        keys[key.id] = {"digest": digest_of(result),
                        "signature": {k: float(v) for k, v
                                      in result.signature.items()}}
    return {"keys": keys}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "golden":
        doc = run_golden()
    else:
        workload = WORKLOADS[spec["workload"]]
        doc = (run_e2e if spec["mode"] == "e2e" else run_trace)(spec, workload)
        doc["nproc"] = len(ALL_CPUS)
    sys.stdout.flush()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
