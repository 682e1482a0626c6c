"""The benchmark's workloads; ``run.py`` runs each in its own process.

Usage (normally through ``run.py``, which pins BLAS/OpenMP threads and
sets ``PYTHONPATH``)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload cold-ilp \\
        --seed 1 --seconds 10 --trace 0

Every workload is closed-loop: a client sends its next query only after
the previous answer arrived.  A run

1. sets the workload up ``SETUPS`` times from scratch (``setup_s`` is
   the median) and times the first queries after each set-up
   (``first_query_ms`` is their median);
2. measures for ``--seconds`` in total, a share after each set-up, in
   slices of about ``SLICE_SECONDS``; with ``--trace 1`` every share is
   half untraced and half traced, so the tracing overhead is the traced
   windows' numbers against the untraced ones';
3. scales every time by the host's speed, read by :func:`calibrate`
   before and after each slice and each set-up (see there);
4. checks every answer — status and objective — against an
   independent cold :class:`~repro.core.engine.PackageQueryEvaluator`
   on the same relation version, computed after the timed windows.
   Where the timed query is itself a cold evaluation (``cold-ilp``),
   the reference turns off query rewriting, cardinality pruning and
   reduction, so a fault in those passes shows as a mismatch.

It prints one JSON object on its last stdout line.  Why each workload
exists and which layers it loads is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.core.parallel import available_cpus
from repro.core.server import PackageQueryServer, ServerClient
from repro.core.server_pool import SessionPool
from repro.core.sessionbench import SESSION_BENCH_QUERIES
from repro.datasets import clustered_relation
from repro.datasets.synthetic import clustered_row_batches, clustered_schema
from repro.relational.sql_relation import SqlRelation

from tracing import Tracer, layer_metrics

OUT = Path(__file__).resolve().parent / "out"

#: Closed-loop HTTP client threads for serve-churn, matched by as many
#: server workers.
CLIENTS = 2

def _outcome(result):
    return result.status.value, result.objective


def _matches(answer, reference):
    status, objective = answer
    ref_status, ref_objective = reference
    if status != ref_status:
        return False
    if objective is None or ref_objective is None:
        return objective is None and ref_objective is None
    return math.isclose(objective, ref_objective, rel_tol=1e-9, abs_tol=1e-9)


class Window:
    """Samples of one timed window."""

    def __init__(self):
        self.latencies = []  # seconds, steady-state reads
        self.first = []  # seconds, first query after a (re)open
        self.operations = 0
        self.seconds = 0.0
        #: Host-speed factor of the window's slice (see calibrate()).
        self.scale = 1.0


class Workload:
    """Base: answers are logged during windows and checked in verify()."""

    #: Set-ups per run; ``setup_s`` is the median over them.
    SETUPS = 5
    #: Whether the window latencies are HTTP round trips to the server.
    HTTP = False

    def __init__(self, seed):
        self.seed = seed
        # (text, relation versions it may have run on, outcome|None, error)
        self.answers = []

    def first_queries(self):
        """Seconds of the first queries after a set-up (none by default)."""
        return []

    def close(self):
        """Release the set-up's state (before the next set-up and at the end)."""

    def verify(self):
        """``(failed, examples)`` over every logged answer."""
        needed = defaultdict(set)
        for text, versions, outcome, _ in self.answers:
            if outcome is not None:
                for version in versions:
                    needed[version].add(text)
        references = self.references(needed)
        failed = 0
        examples = []
        for text, versions, outcome, error in self.answers:
            ok = outcome is not None and any(
                _matches(outcome, references[(text, version)])
                for version in versions
            )
            if not ok:
                failed += 1
                if len(examples) < 5:
                    examples.append(
                        {
                            "query": " ".join(text.split()),
                            "versions": list(versions),
                            "answer": outcome,
                            "error": error,
                            "reference": [
                                references.get((text, version)) for version in versions
                            ],
                        }
                    )
        return failed, examples

    def _evaluate(self, evaluate, text):
        """Run one query over the unmutated relation; log its outcome
        (or error) for verify()."""
        started = time.perf_counter()
        try:
            outcome, error = _outcome(evaluate(text)), None
        except Exception as exc:  # a failed op is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        self.answers.append((text, (0,), outcome, error))
        return elapsed


# -- cold-ilp ------------------------------------------------------------------


class ColdIlp(Workload):
    """The e14 three-template stream, one fresh evaluator per query."""

    ROWS = 50_000
    #: The reference evaluation shares no optional pass with the timed
    #: one: no query rewrite, no cardinality pruning, no reduction.
    REFERENCE = EngineOptions(
        strategy="ilp",
        solver_backend="builtin",
        shards=1,
        rewrite=False,
        use_pruning=False,
        reduce="off",
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.options = EngineOptions(strategy="ilp", solver_backend="builtin", shards=1)
        order = list(SESSION_BENCH_QUERIES)
        random.Random(seed).shuffle(order)
        self.stream = order
        self.cursor = 0
        self.relation = None

    def _next_text(self):
        text = self.stream[self.cursor % len(self.stream)]
        self.cursor += 1
        return text

    def _cold(self, text):
        return PackageQueryEvaluator(self.relation).evaluate(text, self.options)

    def setup(self):
        self.relation = clustered_relation(self.ROWS, seed=self.seed)

    def first_queries(self):
        # One query per template, in a fixed order, so every seed and
        # set-up samples the same mix.
        return [self._evaluate(self._cold, text) for text in SESSION_BENCH_QUERIES]

    def measure(self, seconds, tracer):
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            if tracer is not None:
                tracer.begin_request()
            window.latencies.append(self._evaluate(self._cold, self._next_text()))
            window.operations += 1
        window.seconds = time.perf_counter() - started
        return window

    def references(self, needed):
        return {
            (text, version): _outcome(
                PackageQueryEvaluator(self.relation).evaluate(text, self.REFERENCE)
            )
            for version, texts in needed.items()
            for text in texts
        }

    def close(self):
        self.relation = None


# -- serve-churn ---------------------------------------------------------------


class ServeChurn(Workload):
    """An in-process server over a session pool: Zipf reads over
    selective-WHERE templates, a share of them with fresh parameters,
    and one small append through the pool's session per WRITE_EVERY
    operations."""

    HTTP = True
    SETUPS = 3
    ROWS = 50_000
    TEMPLATES = 20
    FRESH_SHARE = 0.10
    WRITE_EVERY = 100
    WRITE_ROWS = 20

    def __init__(self, seed):
        super().__init__(seed)
        self.options = EngineOptions(strategy="ilp", solver_backend="builtin", shards=1)
        rng = random.Random(seed)
        self.templates = [
            self._query(rng, self.SHAPES[rank % len(self.SHAPES)])
            for rank in range(self.TEMPLATES)
        ]
        self.weights = [1.0 / rank for rank in range(1, self.TEMPLATES + 1)]
        self.cursor = 0
        self.cursor_lock = threading.Lock()
        self.write_lock = threading.Lock()
        self.started_writes = 0
        self.done_writes = 0
        # Appended row batches per set-up, in version order: relation
        # version (setup, k) is the set-up's relation plus its first k.
        self.history = []
        self.relation = self.pool = self.server = None
        self.clients = []

    #: Query shapes ``(band width, cost cap, COUNT cap, weight budget,
    #: objective)``, chosen for misses of steady cost (tens of ms, few
    #: branch-and-bound nodes).  The template of Zipf rank ``r`` and the
    #: fresh query of op ``i`` take shapes ``r % 4`` and ``i % 4``, so
    #: every seed serves the same mix and only band positions vary.
    SHAPES = (
        (0.5, 40, 3, 200, "MAXIMIZE SUM(R.gain)"),
        (0.5, 40, 6, 400, "MAXIMIZE SUM(R.gain)"),
        (0.5, 40, 6, 200, "MINIMIZE SUM(R.weight)"),
        (1.0, 40, 8, 1000, "MAXIMIZE SUM(R.gain)"),
    )

    @staticmethod
    def _query(rng, shape):
        width, cost, cap, budget, objective = shape
        low = round(rng.uniform(1.0, 97.0), 2)
        return (
            "SELECT PACKAGE(R) FROM Readings R "
            f"WHERE R.ts BETWEEN {low} AND {round(low + width, 2)} "
            f"AND R.cost <= {cost} "
            f"SUCH THAT COUNT(*) BETWEEN 2 AND {cap} "
            f"AND SUM(R.weight) <= {budget} {objective}"
        )

    def _op(self, index):
        """Operation ``index`` of the seeded stream: independent of
        which client thread takes it."""
        rng = random.Random(self.seed * 1_000_003 + index)
        if index % self.WRITE_EVERY == self.WRITE_EVERY - 1:
            return "write", [
                {
                    "label": f"w{index}-{row}",
                    "ts": round(rng.uniform(0.0, 100.0), 6),
                    "cost": round(rng.uniform(0.0, 100.0), 3),
                    "gain": round(rng.uniform(0.0, 100.0), 3),
                    "weight": round(rng.uniform(0.0, 100.0), 3),
                }
                for row in range(self.WRITE_ROWS)
            ]
        if rng.random() < self.FRESH_SHARE:
            return "read", self._query(rng, self.SHAPES[index % len(self.SHAPES)])
        return "read", rng.choices(self.templates, self.weights)[0]

    def setup(self):
        self.relation = clustered_relation(self.ROWS, seed=self.seed)
        self.history.append([])
        self.started_writes = self.done_writes = 0
        self.pool = SessionPool.for_relations([self.relation], options=self.options)
        self.server = PackageQueryServer(self.pool, workers=CLIENTS, queue_depth=8).start()
        self.clients = [
            ServerClient("127.0.0.1", self.server.port, timeout=60)
            for _ in range(CLIENTS)
        ]

    def _read(self, client, text):
        code, payload = client.query(self.relation.name, text)
        if code != 200:
            raise RuntimeError(f"HTTP {code}: {payload}")
        return payload["status"], payload["objective"]

    def _logged_read(self, client, text):
        """One read; it may have run on any version from the writes done
        at send to the writes started at receive, so a read racing a
        write checks against either relation version."""
        setup = len(self.history) - 1
        lo = self.done_writes
        started = time.perf_counter()
        try:
            outcome, error = self._read(client, text), None
        except Exception as exc:  # a failed op is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        versions = tuple((setup, k) for k in range(lo, self.started_writes + 1))
        self.answers.append((text, versions, outcome, error))
        return elapsed

    def first_queries(self):
        # Every template's first read after the server started: a
        # result-cache miss each.  It also warms the caches before the
        # timed window.
        return [self._logged_read(self.clients[0], text) for text in self.templates]

    def _write(self, rows, tracer):
        with self.write_lock:
            self.started_writes += 1
            if tracer is not None:
                tracer.begin_request()
            self.pool.session(self.relation.name).append_rows(rows)
            self.history[-1].append(rows)
            self.done_writes += 1

    def measure(self, seconds, tracer):
        window = Window()
        deadline = time.perf_counter() + seconds
        lock = threading.Lock()

        def client_loop(client):
            while True:
                with self.cursor_lock:
                    if time.perf_counter() >= deadline:
                        return
                    index = self.cursor
                    self.cursor += 1
                kind, payload = self._op(index)
                if kind == "write":
                    self._write(payload, tracer)
                    with lock:
                        window.operations += 1
                    continue
                elapsed = self._logged_read(client, payload)
                with lock:
                    window.latencies.append(elapsed)
                    window.operations += 1

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as executor:
            for future in [executor.submit(client_loop, c) for c in self.clients]:
                future.result()
        window.seconds = time.perf_counter() - started
        return window

    def references(self, needed):
        # Every set-up builds the same relation from the seed; the last
        # one stands in for all of them.
        out = {}
        for setup, batches in enumerate(self.history):
            relation = self.relation
            for k in range(len(batches) + 1):
                if k:
                    relation = relation.append_rows(batches[k - 1])
                texts = needed.get((setup, k))
                if texts:
                    evaluator = PackageQueryEvaluator(relation)
                    for text in texts:
                        out[(text, (setup, k))] = _outcome(
                            evaluator.evaluate(text, self.options)
                        )
        return out

    def close(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
        self.relation = self.pool = self.server = None


# -- out-of-core ---------------------------------------------------------------


class OutOfCore(Workload):
    """Selective band queries over a sqlite-backed relation, streamed
    with ``pushdown="always"``; the file is reopened every cycle."""

    ROWS = 150_000
    ZONE_ROWS = 16_384
    #: Many bands, so each seed's band positions average over the data.
    BANDS = 120
    #: Building the file dominates the run's set-up time, and the
    #: ``first_query_ms`` samples come from the reopen cycles instead.
    SETUPS = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.options = EngineOptions(strategy="ilp", solver_backend="builtin", pushdown="always")
        rng = random.Random(seed)
        self.bands = [round(rng.uniform(1.0, 98.0), 2) for _ in range(self.BANDS)]
        self.cursor = 0
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"out-of-core-{os.getpid()}.db"

    def _next_text(self):
        # Bands cycle in a seeded order: every query misses the
        # evaluator's small scan caches (repeats are BANDS queries
        # apart), and every stretch of BANDS queries has the same mix.
        low = self.bands[self.cursor % self.BANDS]
        self.cursor += 1
        return (
            "SELECT PACKAGE(R) FROM Readings R "
            f"WHERE R.ts BETWEEN {low} AND {round(low + 0.5, 2)} AND R.cost <= 20 "
            "SUCH THAT COUNT(*) BETWEEN 2 AND 4 AND MIN(R.gain) >= 60 "
            "MAXIMIZE SUM(R.gain)"
        )

    def _remove(self):
        for suffix in ("", "-journal"):
            Path(f"{self.path}{suffix}").unlink(missing_ok=True)

    def setup(self):
        SqlRelation.from_row_batches(
            "Readings",
            clustered_schema(),
            clustered_row_batches(self.ROWS, seed=self.seed),
            path=str(self.path),
            zone_rows=self.ZONE_ROWS,
            validate=False,
        ).close()
        # The first pushdown query over a new file builds its indexes,
        # which persist; doing it in set-up keeps every timed reopen
        # cycle alike (each still rebuilds the lazy, per-open zone stats).
        with SqlRelation.open(str(self.path)) as relation:
            with PackageQueryEvaluator(relation) as evaluator:
                self._evaluate(
                    lambda text: evaluator.evaluate(text, self.options),
                    self._next_text(),
                )

    def measure(self, seconds, tracer):
        """One reopen cycle: open the file, then query until ``seconds``
        have passed; the first query's time includes the open."""
        window = Window()
        started = time.perf_counter()
        deadline = started + seconds
        if tracer is not None:
            tracer.begin_request()
        relation = SqlRelation.open(str(self.path))
        with relation, PackageQueryEvaluator(relation) as evaluator:
            open_seconds = time.perf_counter() - started

            def evaluate(text):
                return evaluator.evaluate(text, self.options)

            window.first.append(open_seconds + self._evaluate(evaluate, self._next_text()))
            window.operations += 1
            while time.perf_counter() < deadline:
                if tracer is not None:
                    tracer.begin_request()
                window.latencies.append(self._evaluate(evaluate, self._next_text()))
                window.operations += 1
        window.seconds = time.perf_counter() - started
        return window

    def references(self, needed):
        with SqlRelation.open(str(self.path)) as relation:
            materialized = relation.materialize()
        evaluator = PackageQueryEvaluator(materialized)
        options = EngineOptions(strategy="ilp", solver_backend="builtin")
        return {
            (text, version): _outcome(evaluator.evaluate(text, options))
            for version, texts in needed.items()
            for text in texts
        }

    def close(self):
        self._remove()


WORKLOADS = {
    "cold-ilp": ColdIlp,
    "serve-churn": ServeChurn,
    "out-of-core": OutOfCore,
}


# -- harness -------------------------------------------------------------------


def _ms(seconds):
    return 1000.0 * seconds


#: Seconds of one timed slice: the host's speed is read before and
#: after every slice, and its stretches of one speed last seconds.
SLICE_SECONDS = 1.0

#: Seconds :func:`calibrate`'s loop takes on the reference host (a
#: 2-vCPU Intel Xeon KVM guest when it is not contended), so scaled
#: times read close to that host's wall times.
REFERENCE_CALIBRATION_S = 0.003


def calibrate(rounds=5):
    """Median seconds of a fixed pure-Python loop (about 3 ms).

    The host is shared: its speed drifts by up to 2x in stretches of
    seconds to minutes, and every wall time drifts with it, within a
    run and from run to run.  The loop runs none of the program's code,
    so its time reads the host's speed at that moment.  Every time
    metric is scaled by ``REFERENCE_CALIBRATION_S / calibration``, with
    the calibration read right before and after the interval it scales
    (see :func:`measure`); the unscaled values are recorded as well.
    """
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        table = {}
        for i in range(20_000):
            table[i] = i
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def measure(workload, seconds, tracer, calibrations):
    """Windows of at most ``SLICE_SECONDS`` that together last about
    ``seconds``, each scaled by the host's speed around it."""
    windows = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while not windows or time.perf_counter() < deadline:
        length = min(SLICE_SECONDS, max(0.0, deadline - time.perf_counter()))
        window = workload.measure(length, tracer)
        after = calibrate()
        calibrations.append(after)
        window.scale = REFERENCE_CALIBRATION_S / ((before + after) / 2)
        windows.append(window)
        before = after
    return windows


def end_to_end(windows, setups, firsts, peak_rss_mb, scaled=True):
    """``(metrics, sample counts)`` over ``windows`` plus the set-up
    samples, ``(seconds, scale)`` pairs; latencies are steady-state
    reads, first queries apart.  ``scaled=False`` gives wall times."""

    def times(pairs):
        return [value * scale if scaled else value for value, scale in pairs]

    latencies = times(
        (value, window.scale) for window in windows for value in window.latencies
    )
    firsts = times(
        list(firsts)
        + [(value, window.scale) for window in windows for value in window.first]
    )
    operations = sum(window.operations for window in windows)
    seconds = sum(times((window.seconds, window.scale) for window in windows))
    if not latencies or not firsts or not operations:
        raise RuntimeError("a window completed no operations")
    p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
    metrics = {
        "setup_s": statistics.median(times(setups)),
        "latency_p50_ms": _ms(p50),
        "latency_p90_ms": _ms(p90),
        "latency_p99_ms": _ms(p99),
        "throughput_qps": operations / seconds,
        "first_query_ms": _ms(statistics.median(firsts)),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": len(setups),
        "latency": len(latencies),
        "first_query_ms": len(firsts),
        "operations": operations,
        "seconds": seconds,
        "slices": len(windows),
    }
    return metrics, samples


def host():
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def run(name, seed, seconds, trace):
    """Set up, measure and verify one workload; returns the report.

    The timed seconds are split into one chunk per set-up, each chunk
    measured right after its set-up, so a run samples the host over its
    whole duration rather than in one stretch.  In a traced run each
    chunk is half untraced and half traced, in alternating order.
    """
    workload = WORKLOADS[name](seed)
    setups, firsts, calibrations = [], [], []
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    phases = defaultdict(float)
    began = time.perf_counter()

    def phase(label):
        nonlocal began
        now = time.perf_counter()
        phases[label] += now - began
        began = now

    try:
        for chunk in range(workload.SETUPS):
            # Tear the previous set-up down untimed; the server's handler
            # class holds it in a reference cycle, so collect it too (peak
            # RSS then holds one set-up, not two).
            workload.close()
            gc.collect()
            before = calibrate()
            started = time.perf_counter()
            workload.setup()
            setup_seconds = time.perf_counter() - started
            between = calibrate()
            first = workload.first_queries()
            after = calibrate()
            calibrations.extend((between, after))
            setups.append((setup_seconds, REFERENCE_CALIBRATION_S * 2 / (before + between)))
            scale = REFERENCE_CALIBRATION_S * 2 / (between + after)
            firsts.extend((value, scale) for value in first)
            phase("setup")
            if not trace:
                order = (False,)
            else:
                order = (False, True) if chunk % 2 == 0 else (True, False)
            for traced_window in order:
                length = seconds / workload.SETUPS / len(order)
                if traced_window:
                    tracer.install()
                try:
                    windows = measure(
                        workload, length, tracer if traced_window else None, calibrations
                    )
                finally:
                    if traced_window:
                        tracer.uninstall()
                (traced if traced_window else untraced).extend(windows)
            phase("measure")
        # Read before verify(), whose reference relations are not part
        # of the workload.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, mismatches = workload.verify()
        phase("verify")
    finally:
        workload.close()
    metrics, samples = end_to_end(untraced, setups, firsts, peak_rss_mb)
    wall, _ = end_to_end(untraced, setups, firsts, peak_rss_mb, scaled=False)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "host": host(),
        "attempted": len(workload.answers),
        "failed": failed,
        "failed_ratio": failed / len(workload.answers),
        "mismatches": mismatches,
        "end_to_end": metrics,
        "wall_end_to_end": wall,
        "samples": samples,
        "phase_seconds": phases,
        "host_calibration_ms": _ms(statistics.median(calibrations)),
        "reference_calibration_ms": _ms(REFERENCE_CALIBRATION_S),
    }
    if trace:
        traced_metrics, traced_samples = end_to_end(traced, setups, firsts, peak_rss_mb)
        round_trips = (
            [value for window in traced for value in window.latencies]
            if workload.HTTP
            else []
        )
        per_layer = layer_metrics(
            tracer.spans, sum(window.operations for window in traced), round_trips
        )
        per_layer["trace.overhead_ratio"] = (
            traced_metrics["latency_p50_ms"] / metrics["latency_p50_ms"]
        )
        report["per_layer"] = per_layer
        report["traced_end_to_end"] = traced_metrics
        report["traced_samples"] = traced_samples
        report["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}.jsonl")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
