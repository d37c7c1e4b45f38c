"""``python -m repro.eval serve`` — one batch through the supervised pool.

Reads compile jobs from ``--jobs FILE`` (or builds the ``--prewarm nas``
list from :mod:`repro.nas.specs`), runs them on a
:class:`~repro.compile.pool.CompilePool` against the active plan cache,
prints a progress line per job and optionally writes the per-job rows as
JSON.  SIGTERM drains: in-flight jobs finish, queued ones resolve as typed
``CompileCancelled`` failures, every worker is reaped.

``repro.compile`` does not import this module; only the CLI does.
"""

from __future__ import annotations

import json
import signal
import threading

from .cache import atomic_write
from .driver import CompileJob
from .pool import CompilePool, PoolConfig


def prewarm_jobs(procs: "tuple[int, ...]" = (4, 9, 16, 25)) -> "list[CompileJob]":
    """Jobs that prewarm the plan cache for the evaluation suite: the
    paper/NAS kernels at their declared processor grids, plus a
    wildcard-grid variant of SP ``compute_rhs`` at every count in *procs*
    (the grid factors near-square, so any count compiles).  Because the
    selection cache tier is keyed without ``nprocs``, the wildcard sweep
    shares one rank-symbolic CP selection; only specialization and codegen
    run per count."""
    from ..nas import kernels
    from ..nas.specs import kernel_spec

    jobs = [
        CompileJob(source=s.source, nprocs=s.nprocs, params=s.params,
                   label=f"{s.name} @{s.nprocs}")
        for s in map(kernel_spec, ("fig4.1", "fig4.2", "exact-rhs", "sp-rhs-s"))
    ]
    sp = kernel_spec("sp-rhs-s")
    jobs += [
        CompileJob(source=kernels.scaled(sp.source), nprocs=np_,
                   params=sp.params, label=f"{sp.name} *grid @{np_}")
        for np_ in procs
    ]
    return jobs


def _jobs_from_file(path: str) -> "list[CompileJob]":
    """The jobs of a ``--jobs`` file; ``ValueError`` says what is wrong
    with it."""
    from ..nas import kernels

    with open(path) as fh:
        rows = json.load(fh)
    jobs = []
    for i, row in enumerate(rows):
        source = row.get("source")
        if source is None:
            kname = row.get("kernel")
            source = getattr(kernels, kname, None)
            if source is None:
                raise ValueError(
                    f"job {i}: no source and unknown kernel {kname!r}")
        jobs.append(CompileJob(
            source=source,
            nprocs=int(row.get("nprocs", 4)),
            params=row.get("params") or {},
            backend=row.get("backend", "vector"),
            strict=bool(row.get("strict", True)),
            label=row.get("label") or row.get("kernel") or f"job-{i}",
            timeout=row.get("timeout"),
        ))
    return jobs


def register(sub) -> None:
    """Add the ``serve`` subcommand."""
    p = sub.add_parser("serve", help="compile a batch of jobs on the pool")
    p.add_argument("--jobs", default=None, metavar="FILE",
                   help="JSON file with compile jobs (a list of "
                        "{source|kernel, nprocs, params, backend, strict, "
                        "label} objects)")
    p.add_argument("--prewarm", default=None, choices=["nas"],
                   help="compile the built-in NAS/paper kernel jobs (declared "
                        "grids plus a wildcard-grid rank sweep over --procs) "
                        "instead of reading --jobs")
    p.add_argument("--procs", default="4,9,16,25",
                   help="--prewarm: comma list of processor counts")
    p.add_argument("--serve-out", default=None, metavar="FILE",
                   help="write per-job results as JSON to FILE")
    p.add_argument("--workers", type=int, default=4,
                   help="compile worker processes in the supervised pool "
                        "(retry/backoff, quarantine, bounded queue, graceful "
                        "SIGTERM drain)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="default per-job deadline in host seconds")
    p.set_defaults(run=run)


def run(args) -> int:
    """Compile the batch; exit 0 iff every job succeeded (a drained-away or
    failed job makes it 1, a bad ``--jobs`` file 2)."""
    if args.prewarm:
        jobs = prewarm_jobs(tuple(int(p) for p in args.procs.split(",")))
    elif not args.jobs:
        print("serve needs --jobs FILE (a JSON list of job objects; "
              "each has source or kernel, plus nprocs/params/backend/"
              "strict/label) or --prewarm nas")
        return 2
    else:
        try:
            jobs = _jobs_from_file(args.jobs)
        except ValueError as exc:
            print(exc)
            return 2

    def _report(out):
        status = "ok" if out.ok else f"FAILED ({type(out.error).__name__})"
        how = "cache" if out.cached else "compiled"
        print(f"  [serve] {out.job.describe()}: {status} "
              f"[{how}, {out.elapsed:.2f}s]", flush=True)

    drainer: list = []

    def _on_term(signum, frame):
        # graceful drain: stop admitting, finish in-flight work,
        # shed the still-queued tail with typed CompileCancelled
        # failures, reap every worker.  run_batch's waiters see
        # the resolutions and return; cancelled jobs count as
        # failures in the exit code.
        print("  [serve] SIGTERM: draining (finishing in-flight, "
              "cancelling queued)", flush=True)
        t = threading.Thread(
            target=pool.shutdown,
            kwargs={"wait": True, "cancel_queued": True},
            daemon=True,
        )
        t.start()
        drainer.append(t)

    with CompilePool(PoolConfig(
        workers=args.workers, timeout=args.timeout,
    )) as pool:
        prev = signal.signal(signal.SIGTERM, _on_term)
        try:
            outcomes = pool.run_batch(jobs, progress=_report)
        finally:
            signal.signal(signal.SIGTERM, prev)
            if drainer:
                drainer[0].join(timeout=60.0)
    s = pool.stats
    print(f"  [serve] pool: {s.forks} forks, {s.warm_hits} warm, "
          f"{s.coalesced} coalesced, {s.selects} selects, "
          f"{s.selections_shared} shared selections, {s.retries} retries, "
          f"{s.quarantined} quarantined, "
          f"peak queue {s.peak_queue_depth}", flush=True)
    if args.serve_out:
        rows = [{
            "label": out.job.describe(),
            "ok": out.ok,
            "cached": out.cached,
            "shared": out.shared,
            "elapsed_s": round(out.elapsed, 3),
            "error": None if out.error is None else {
                "type": type(out.error).__name__,
                "message": str(out.error),
            },
            "diagnostics": len(out.sink.diagnostics),
        } for out in outcomes]
        payload = json.dumps(
            {"jobs": rows, "pool": s.as_dict()}, indent=2, sort_keys=True,
        ) + "\n"
        atomic_write(args.serve_out, payload.encode())
        print(f"wrote {args.serve_out}")
    return 0 if all(out.ok for out in outcomes) else 1
