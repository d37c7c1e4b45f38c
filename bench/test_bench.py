"""Self-test of the benchmark harness (not part of tier-1's ``testpaths``):

    python3 -m pytest bench/test_bench.py -q

The ``--quick`` runs of the four workloads and the traced run of one take
about three minutes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run as runner  # noqa: E402
import workloads as wl  # noqa: E402
from sampling import (  # noqa: E402
    Probe,
    Timing,
    Tracer,
    batch_size,
    fast_decile,
    fastest_pass,
    percentile,
    run_child,
    self_times,
    summarize_timings,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# -- estimator and batch sizing ---------------------------------------------

def test_fast_decile_is_the_minimum_below_ten_samples():
    assert fast_decile([5.0]) == 5.0
    assert fast_decile([3.0, 1.0, 2.0]) == 1.0
    assert fast_decile(list(range(9, 0, -1))) == 1


def test_fast_decile_is_nearest_rank():
    assert fast_decile(list(range(1, 11))) == 1  # ceil(0.1 * 10) = 1st
    assert fast_decile(list(range(1, 12))) == 2  # ceil(0.1 * 11) = 2nd
    assert fast_decile(list(range(1, 21))) == 2
    assert fast_decile(list(range(60, 0, -1))) == 6
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 90) == 4
    with pytest.raises(ValueError):
        percentile([], 10)


def test_batch_size():
    assert batch_size(0.25, 0.15) == 1  # long enough on its own
    assert batch_size(0.2, 0.15) == 1
    assert batch_size(0.05, 0.15) == 3
    assert batch_size(0.1, 0.15) == 2
    assert batch_size(0.19, 0.15) == 1  # never below one pass
    assert batch_size(1e-6, 0.15) == 256  # capped
    assert batch_size(0.0, 0.15) == 256


def test_a_batch_is_sized_from_the_fastest_pass():
    costs = iter([0.05, 0.002, 0.002, 0.03, 0.002])

    def one_pass():
        time.sleep(next(costs))

    assert 0.002 <= fastest_pass(one_pass) < 0.02  # not the 0.05 of the first
    assert next(costs, None) is None  # took SIZING_PASSES passes


# -- contention-normalised timing --------------------------------------------

def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_normalises_spans_and_reaps_its_helpers():
    with Tracer("w", "k") as tr:
        with tr.span("outer"):
            _spin(0.06)
            with tr.span("inner", kernel="other"):
                _spin(0.06)
    with pytest.raises(ChildProcessError):  # no helper left, alive or zombie
        os.waitpid(-1, os.WNOHANG)
    outer, = tr.timings("outer")
    inner, = tr.timings("inner", kernel="other")
    assert tr.timings("inner", kernel="k") == []
    assert 0.12 <= outer.wall < 0.5 and 0.06 <= inner.wall < outer.wall
    for t in (outer, inner):
        # normalised time is wall time scaled by the loop's slowdown
        assert t.slowdown > 0.5
        assert 0.6 * t.wall / t.slowdown < t.norm < 1.6 * t.wall / t.slowdown
    assert tr.spans[1]["parent"] == 0 and tr.spans[0]["parent"] is None
    assert {"name", "start", "end", "parent", "workload", "kernel", "sample"} <= set(tr.spans[0])
    own = self_times(tr.spans)
    assert own["outer"] == pytest.approx(outer.norm - inner.norm)
    assert own["inner"] == pytest.approx(inner.norm)


def test_probe_reads_the_cpus_the_sample_may_run_on():
    def series():
        probe = Probe()
        probe.start()
        probe.stop()
        return len(probe.series()), all(at and took for at, took in probe.series())

    assert run_child(series, pin=0).value == (1, True)
    assert run_child(series).value == (os.cpu_count(), True)


def test_timing_per_pass():
    assert Timing(1.0, 2.0, 2.0).per_pass(4) == Timing(0.25, 0.5, 2.0)


def test_value_is_the_fast_decile_and_for_a_gang_the_median():
    samples = [Timing(n, 2 * n, 1.5) for n in (3.4, 4.1, 4.2, 4.3, 4.5)]
    assert summarize_timings(samples)["value"] == 3.4
    gang = summarize_timings(samples, gang=True)
    assert gang["value"] == gang["median"] == 4.2
    assert gang["wall"] == 6.8 and gang["n"] == 5  # raw: the fast decile either way


# -- sample children ----------------------------------------------------------

def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_child_returns_its_value():
    res = run_child(lambda: {"x": 41 + 1})
    assert res.ok and res.value == {"x": 42} and res.leaked == 0
    assert _reaped(res.pid)


def test_child_is_pinned_on_request():
    assert run_child(lambda: os.sched_getaffinity(0), pin=0).value == {0}
    assert len(run_child(lambda: os.sched_getaffinity(0)).value) == os.cpu_count()


def test_child_that_raises_is_a_failed_operation():
    def boom():
        raise KeyError("no such kernel")

    res = run_child(boom)
    assert not res.ok and "KeyError" in res.error
    assert _reaped(res.pid)


def test_child_that_is_killed_is_a_failed_operation():
    res = run_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert not res.ok and "died" in res.error
    assert _reaped(res.pid)


def test_child_that_hangs_is_killed_and_reaped():
    t0 = time.monotonic()
    res = run_child(lambda: time.sleep(60), timeout=0.5)
    assert not res.ok and "exceeded" in res.error
    assert time.monotonic() - t0 < 10
    assert _reaped(res.pid)


def test_child_that_leaves_a_worker_behind_is_flagged_and_cleaned_up():
    def litter():
        pid = os.fork()
        if pid == 0:
            time.sleep(60)
            os._exit(0)
        return pid

    res = run_child(litter)
    assert res.ok and res.leaked == 1
    deadline = time.monotonic() + 5
    while not _reaped(res.value) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _reaped(res.value)


def test_failed_child_is_tallied_not_fatal(tmp_path):
    w = wl.WORKLOADS["kernels-S"]
    journey = runner.Journey(w, 1, {}, {}, str(tmp_path))
    assert journey._take("doomed", lambda: 1 / 0) is None
    assert journey.attempted == 1 and len(journey.problems) == 1
    assert "ZeroDivisionError" in journey.problems[0]


# -- references ---------------------------------------------------------------

def test_transcription_matches_the_interpreter_hashes():
    expected = reference.load_expected()
    for name in ("rhs-W-vm", "rhs-W-proc", "sweep-svc"):
        for kernel in wl.WORKLOADS[name].kernels:
            inputs = reference.make_inputs(kernel, wl.DEFAULT_SEED)
            got = reference.numpy_compute_rhs_sp(kernel, inputs)
            assert {n: reference.sha256_array(d) for n, d in got.items()} == \
                expected["workloads"][name][kernel.name]


def test_expected_json_covers_every_kernel():
    expected = reference.load_expected()
    assert expected["seed"] == wl.DEFAULT_SEED
    for w in wl.WORKLOADS.values():
        assert set(expected["workloads"][w.name]) == {k.name for k in w.kernels}


def test_inputs_depend_on_the_seed_only():
    kernel = wl.WORKLOADS["kernels-S"].kernels[0]
    a, b, c = (reference.make_inputs(kernel, s) for s in (1, 1, 2))
    assert all((a[n] == b[n]).all() for n in a)
    assert any((a[n] != c[n]).any() for n in a)
    assert all(((1 <= a[n]) & (a[n] < 2)).all() for n in a)


def test_owned_index_agrees_with_the_layout(tmp_path):
    kernel = wl.WORKLOADS["sweep-svc"].kernels[2]  # class S at 4 ranks

    def probe():
        got = wl.compile_cold(kernel, str(tmp_path / "c"), keep_kernel=True)
        import pickle

        ck = pickle.loads(got["pickled"])
        arrays = ck.make_arrays()
        bad = []
        for name in ("u", "rho_i"):
            for rank in range(ck.nprocs):
                index = wl.owned_index(ck, name, rank, arrays[name])
                mask = arrays[name].data.astype(bool)
                mask[index] = True
                want = {
                    arrays[name]._index(e)
                    for e in ck.ctx.owned_elements(name, ck.grid.delinearize(rank))
                }
                have = set(zip(*mask.nonzero()))
                if want != have:
                    bad.append((name, rank))
        return bad

    res = run_child(probe)
    assert res.ok, res.error
    assert res.value == []


# -- the contract -------------------------------------------------------------

def test_benchmark_json_names_what_the_code_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    # the driver gates the two workloads whose runs it has the time to make
    # long enough; the class-W pair is run by hand with the same command
    assert [w["name"] for w in SPEC["workloads"]] == ["kernels-S", "sweep-svc"]
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    # timings: the widest bound the contract allows, because identical code
    # spread 10-17 % on the driver's host (see the README); memory: ISSUE 17's
    assert {m["name"]: m["bound"] for m in SPEC["end_to_end"]} == {
        name: 0.05 if name == "peak_rss_mb" else 0.25 for name, _ in runner.END_TO_END}
    assert all(m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_quick_run_reports_every_end_to_end_metric(name, tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "7", "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == want
    assert all(set(m) == {"value", "unit"} and m["value"] > 0 for m in last["metrics"].values())

    full = json.loads(out.read_text())
    assert full["rounds"] == 2
    for metric in full["end_to_end"].values():
        assert metric["n"] >= 1 and metric["unit"]
    for key in ("git_revision", "nproc", "python", "numpy", "PYTHONHASHSEED",
                "loadavg_start", "loadavg_end", "spin_p10_ms", "spin_excess"):
        assert key in full["env"]
    assert full["env"]["PYTHONHASHSEED"] == "0"
    assert full["fail_share"] == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kernels-S",
         "--seed", "7", "--trace", "1", "--out", str(tmp_path / "result.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == want
    for name in ("cp.select_calls", "comm.specialize_calls", "isets.intern_misses",
                 "codegen.node_bytes", "codegen.guard_points"):
        assert last["metrics"][name]["value"] > 0


# -- compare --------------------------------------------------------------------

def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, steady, 0.1, "lower") == "unchanged"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], 0.1, "lower") == "regressed"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], 0.1, "lower") == "improved"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], 0.1, "higher") == "regressed"
    noisy = [8.0, 12.0, 9.0, 13.0]
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    # a wide spread does not hide a side that wins every run
    assert compare.verdict(steady, [20.0, 30.0, 25.0, 40.0], 0.1, "lower") == "regressed"


def test_comm_bytes_is_held_to_bound_zero():
    assert compare.exact_verdict([96, 96], [96, 96, 96]) == "unchanged"
    assert compare.exact_verdict([96, 96], [97, 97]) == "regressed"
    assert compare.exact_verdict([96, 96], [64, 64]) == "improved"
    assert compare.exact_verdict([96, 96], [96, 64]) == "regressed"  # does not repeat
    assert compare.exact_verdict([96, 64], [96, 96]) == "unresolved"


def _result(tmp_path, name, run_ms, comm_bytes=96, failed=0):
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "kernels-S", "failed": failed, "attempted": 10,
        "comm_bytes": comm_bytes, "env": {"spin_excess": 1.1},
        "end_to_end": {"run_ms": {"value": run_ms, "unit": "ms"}},
    }))
    return str(path)


def test_compare_exits_nonzero_on_more_bytes_and_refuses_failed_runs(tmp_path, capsys):
    a = [_result(tmp_path, f"a{i}.json", 10.0 + i / 10) for i in range(3)]
    same = [_result(tmp_path, f"b{i}.json", 10.0 + i / 10) for i in range(3)]
    assert compare.main([*a, "--", *same]) == 0
    more = [_result(tmp_path, f"c{i}.json", 10.0, comm_bytes=128) for i in range(3)]
    assert compare.main([*a, "--", *more]) == 1
    assert "comm_bytes" in capsys.readouterr().out
    broken = _result(tmp_path, "d.json", 10.0, failed=1)
    with pytest.raises(SystemExit, match="1 of 10 operations failed"):
        compare.main([*a, "--", broken])
