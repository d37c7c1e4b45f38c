"""Fork-per-sample isolation, contention-normalised timing and the
fast-decile estimator.

Every timed operation of the benchmark runs in a freshly forked child of
the single-threaded runner: the child inherits the imported ``repro``
package and the seeded inputs, starts from the same heap with empty iset
memo pools and empty guard caches, reports over a pipe and ``os._exit``s.

The host is a 2-vCPU microVM whose neighbours slow it by 30-80 % for
seconds at a time, so wall time alone does not repeat.  While an
operation is timed, a ``Probe`` — one pinned helper process per CPU the
operation may run on — times a fixed calibration loop every 20 ms; the
operation's *normalised* time is its wall time with every 20 ms slice
scaled by how fast the loop ran in it — the seconds it would have taken
on a host that runs the loop at its nominal speed throughout.  Nothing
runs inside the timed process.  What interference is left only ever
adds time, so a metric's value is the fast decile of its normalised
samples (the median where a gang of workers is normalised over several
CPUs, see ``summarize_timings``); the fast decile of the raw wall times
is reported beside it.
"""

from __future__ import annotations

import bisect
import math
import os
import pickle
import resource
import select
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

#: operations shorter than this are timed in batches of several passes
BATCH_BELOW_S = 0.2
#: a batch is sized from the fastest of this many passes
SIZING_PASSES = 5
#: how long a sample child's process group may outlive it before whatever
#: is left counts as leaked
GROUP_EXIT_GRACE_S = 2.0

#: the calibration loop: ``PROBE_LOOPS`` loops of ``PROBE_ITERS``
#: iterations every ``PROBE_PERIOD_S``; a probe reads the fastest loop
#: times ``PROBE_LOOPS``, so one loop losing the CPU mid-way does not
#: count as a slow host
PROBE_LOOPS = 4
PROBE_ITERS = 2_500
PROBE_PERIOD_S = 0.02
#: what a probe reads on the reference host (Xeon @ 2.1 GHz microVM,
#: CPython 3.11) when no neighbour interferes: the 2nd percentile of
#: 60 000 probes.  Normalised seconds are seconds at this host speed; on
#: other hardware they shift by a constant factor, for both sides of a
#: comparison alike.
PROBE_NOMINAL_S = 0.000266


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fast_decile(samples: Sequence[float]) -> float:
    """The estimator behind every timed metric: nearest-rank p10, which
    is the minimum below ten samples."""
    return percentile(samples, 10)


def summarize_timings(samples: Sequence[Timing], gang: bool = False) -> dict:
    """``value`` with the ungated ``median``, ``p90`` and sample count
    printed beside it, the fast decile of the raw wall times and the mean
    slowdown the samples ran under.

    ``value`` is the fast decile of the normalised times of pinned
    samples: their probe shares their CPU, and what it leaves uncorrected
    only ever adds time.  Samples of a *gang* (workers of their own on
    every CPU) are normalised by the slowest CPU, which over-corrects
    whenever that CPU was not the one the gang waited for — one cold
    service batch in eight then reads 3.3-3.7 s among others of
    4.0-4.5 s, exactly what a fast decile picks.  Their error has two
    sides, so their ``value`` is the median."""
    norm = [t.norm for t in samples]
    return {
        "value": percentile(norm, 50) if gang else fast_decile(norm),
        "median": percentile(norm, 50),
        "p90": percentile(norm, 90),
        "n": len(samples),
        "wall": fast_decile([t.wall for t in samples]),
        "slowdown": sum(t.slowdown for t in samples) / len(samples),
    }


def batch_size(pass_seconds: float, target_seconds: float, cap: int = 256) -> int:
    """Passes per timed batch: one for an operation of ``BATCH_BELOW_S``
    or longer, else the fewest that fill ``target_seconds``."""
    if pass_seconds >= BATCH_BELOW_S:
        return 1
    if pass_seconds <= 0:
        return cap
    return max(1, min(cap, math.ceil(target_seconds / pass_seconds - 1e-9)))


def fastest_pass(one_pass: Callable[[], Any], passes: int = SIZING_PASSES) -> float:
    """Seconds of the fastest of *passes* passes: what a batch is sized
    from.  One pass of a few milliseconds that holds a garbage collection,
    or loses the CPU, reads ten times its cost and would size every batch
    of the run at a tenth of its target — 5 passes where 130 were meant,
    whose per-pass time then flips with whether a collection falls into
    them."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        one_pass()
        best = min(best, time.perf_counter() - t0)
    return best


class Timing(NamedTuple):
    """One timed operation: contention-normalised seconds (what metrics
    are made of), raw wall seconds, and the mean slowdown of the
    calibration loop while it ran (1.0 = nominal host speed)."""

    norm: float
    wall: float
    slowdown: float

    def per_pass(self, passes: int) -> "Timing":
        return Timing(self.norm / passes, self.wall / passes, self.slowdown)


def _calibration_loop() -> float:
    """One probe reading: the fastest of ``PROBE_LOOPS`` loops, times
    ``PROBE_LOOPS``."""
    best = float("inf")
    for _ in range(PROBE_LOOPS):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x += i
        best = min(best, time.perf_counter() - t0)
    return best * PROBE_LOOPS


class Probe:
    """One helper process per CPU this process may run on, pinned there,
    reads the calibration loop every ``PROBE_PERIOD_S`` until stopped.
    A pinned sample gets the one helper that shares its CPU; a sample
    whose workers roam gets one per CPU.  The helpers take about 1.5 %
    of a CPU, the same on both sides of a comparison, and nothing runs
    inside the timed process itself."""

    def __init__(self):
        self._helpers: list[tuple[int, int]] = []  # (pid, read end)
        self._series: list[tuple[list[float], list[float]]] = []

    @staticmethod
    def _helper(cpu: int, wfd: int) -> None:
        os.sched_setaffinity(0, {cpu})
        stop = []
        signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
        at, took = [], []
        while not stop:
            at.append(time.perf_counter())  # CLOCK_MONOTONIC: shared by processes
            took.append(_calibration_loop())
            time.sleep(PROBE_PERIOD_S)
        with os.fdopen(wfd, "wb") as fh:
            pickle.dump((at, took), fh)

    def start(self) -> None:
        for cpu in sorted(os.sched_getaffinity(0)):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(rfd)
                    self._helper(cpu, wfd)
                finally:
                    os._exit(0)
            os.close(wfd)
            self._helpers.append((pid, rfd))
        time.sleep(PROBE_PERIOD_S)  # every helper has a reading before timing starts

    def stop(self) -> None:
        for pid, _ in self._helpers:
            os.kill(pid, signal.SIGTERM)
        for pid, rfd in self._helpers:
            with os.fdopen(rfd, "rb") as fh:
                self._series.append(pickle.load(fh))
            os.waitpid(pid, 0)
        self._helpers.clear()

    def series(self) -> list[tuple[list[float], list[float]]]:
        return self._series


def timing(series: list[tuple[list[float], list[float]]], start: float,
           end: float) -> Timing:
    """The interval [start, end] (``perf_counter`` values) in slices of
    ``PROBE_PERIOD_S``.  A slice's slowdown is the reading nearest in
    time; with one series per CPU, that of the slowest CPU — a gang of
    workers is as fast as its slowest member.  Which CPU binds a gang at
    a given moment is not known, so this is right on average and errs
    both ways sample by sample; see ``summarize_timings``."""
    norm = weight = 0.0
    t = start
    while t < end:
        width = min(PROBE_PERIOD_S, end - t)
        mid = t + width / 2
        slowdown = 0.0
        for at, took in series:
            i = bisect.bisect_left(at, mid)
            if i == len(at) or (i > 0 and mid - at[i - 1] < at[i] - mid):
                i -= 1
            slowdown = max(slowdown, took[i] / PROBE_NOMINAL_S)
        norm += width / slowdown
        weight += width * slowdown
        t += width
    wall = end - start
    return Timing(norm, wall, weight / wall if wall > 0 else 1.0)


class Tracer:
    """Spans over a probed region.  Used as a context manager around
    everything a sample child times; each ``span`` becomes a record
    ``{name, start, end, parent, workload, kernel, sample}`` (``parent``
    is the index of the enclosing span), and on exit gains ``norm`` and
    ``slowdown`` from the probe."""

    def __init__(self, workload: str | None = None, kernel: str | None = None,
                 sample: int = 0):
        self.labels = {"workload": workload, "kernel": kernel, "sample": sample}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._probe = Probe()

    def __enter__(self) -> "Tracer":
        self._probe.start()
        return self

    def __exit__(self, *exc) -> None:
        self._probe.stop()
        series = self._probe.series()
        for record in self.spans:
            if record["end"] is not None:
                t = timing(series, record["start"], record["end"])
                record["norm"], record["slowdown"] = t.norm, t.slowdown

    @contextmanager
    def span(self, name: str, kernel: str | None = None):
        record = dict(self.labels, name=name, start=time.perf_counter(), end=None,
                      parent=self._open[-1] if self._open else None)
        if kernel is not None:
            record["kernel"] = kernel
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def timings(self, name: str, kernel: str | None = None) -> list[Timing]:
        """The finished spans called *name* (of *kernel*), in order; valid
        after exit."""
        return [
            Timing(r["norm"], r["end"] - r["start"], r["slowdown"])
            for r in self.spans
            if r["name"] == name and (kernel is None or r["kernel"] == kernel)
        ]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, its normalised time minus the part its child spans
    cover."""
    own = [s["norm"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["norm"]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


@dataclass
class ChildResult:
    """What one sample child delivered.  ``value`` is whatever the sample
    function returned; on failure ``error`` says why and ``value`` is None."""

    ok: bool
    value: Any
    error: str | None
    pid: int
    #: processes of the child's group that outlived it (they are killed)
    leaked: int = 0


def peak_rss_kb() -> int:
    """Peak resident set so far of this process and of every descendant
    it has waited for.  A sample child calls it when its operation ends,
    before whatever the benchmark does there on its own account."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _group_alive(pgid: int) -> bool:
    """Whether any process of group *pgid* still runs.  Zombies do not
    count: an orphan that has exited waits for init to reap it, which
    this container's init does at its leisure."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid pgrp ...; comm may contain spaces
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # gone between listdir and open
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def run_child(fn: Callable[[], Any], timeout: float = 150.0,
              pin: int | None = None) -> ChildResult:
    """Run ``fn()`` in a forked child and return what it sends back.

    The child leads its own process group, so a sample that hangs, or
    exits with workers still alive, is cleaned up with one ``killpg``.
    A child that raises, dies or overruns ``timeout`` yields a failed
    result and a reaped pid — never a hung or crashed runner.

    *pin* ties the child (its threads and its probe) to one CPU, so that
    the probe and the operation it calibrates share a vCPU; samples that
    fork workers of their own stay unpinned and are probed on every CPU.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # sample child
        code = 1
        try:
            os.close(rfd)
            os.setpgid(0, 0)
            try:
                if pin is not None:
                    os.sched_setaffinity(0, {pin})
                payload = pickle.dumps(("ok", fn()))
                code = 0
            except BaseException:  # noqa: BLE001 - reported to the runner
                payload = pickle.dumps(("err", traceback.format_exc()))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(len(payload).to_bytes(8, "big") + payload)
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        os.setpgid(pid, pid)  # both sides set it: no race with killpg
    except (ProcessLookupError, PermissionError):
        pass
    # the report is length-prefixed: a worker the sample leaked holds the
    # pipe's write end open, so end-of-file may never come
    buf = bytearray()
    error = None
    deadline = time.monotonic() + timeout
    try:
        while len(buf) < 8 or len(buf) < 8 + int.from_bytes(buf[:8], "big"):
            left = deadline - time.monotonic()
            if left <= 0:
                error = f"sample child {pid} exceeded {timeout:.0f}s and was killed"
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            buf += chunk
    finally:
        os.close(rfd)
    if error is not None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(pid, 0)
    leaked = 0
    # multiprocessing's resource tracker outlives its parent by the few
    # milliseconds it takes to see its pipe close; give the group that long
    grace = time.monotonic() + GROUP_EXIT_GRACE_S
    while _group_alive(pid) and time.monotonic() < grace:
        time.sleep(0.002)
    if _group_alive(pid):
        # the leader is reaped, so whatever still answers is a worker the
        # sample failed to stop
        leaked = 1
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if error is None:
        try:
            kind, value = pickle.loads(bytes(buf[8:]))
        except Exception:  # truncated or empty: the child died mid-report
            kind, value = "err", f"sample child {pid} died (wait status {status})"
        if kind == "ok":
            return ChildResult(True, value, None, pid, leaked)
        error = value
    return ChildResult(False, None, error, pid, leaked)


def settle(res: ChildResult, what: str, problems: list[str]) -> tuple[Any, int]:
    """Book one sample child that ran an operation returning
    ``{"attempted": n, "problems": [...], ...}``: its problems (or its
    failure, or what it leaked) go to *problems*; returns its value (None
    if it failed) and the number of operations it stands for.  A failed
    child is one failed operation, not a dead run."""
    attempted = 0
    if res.leaked:
        attempted += 1
        problems.append(f"{what}: child {res.pid} left processes behind")
    if not res.ok:
        problems.append(f"{what}: {res.error.strip().splitlines()[-1]}")
        return None, attempted + 1
    problems.extend(res.value["problems"])
    return res.value, attempted + res.value["attempted"]
