"""A compile's result is a function of the compile alone.

The iset memo tables (constraint interning, emptiness and subsumption
verdicts) are emptied at each compile's start, and an ``IsetBudget`` is
charged on memo misses only.  So a budgeted compile must charge the same
ops, trip the same nests and emit the same node programs whether it runs
in a fresh interpreter or after any history of earlier compiles in the
same process — including one of the very same source, which would
otherwise hand it a warm memo and a budget that never trips.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.check.verifier import analyzed_unit
from repro.codegen import CodegenUnsupported, compile_kernel
from repro.compile import PlanCache, PlanCacheConfig, cache_disabled, use_cache
from repro.isets import IsetBudget
from repro.nas import kernels
from repro.nas.specs import all_specs, kernel_spec

#: (spec key, budget max_ops) of the budgeted lenient compiles under test:
#: the first two trip their budget in a fresh interpreter, the third does
#: not (its op count is what a warm memo would shrink)
TARGETS = (("exact-rhs", 1000), ("fig4.1", 1000), ("sp-rhs-s", 200_000))


def target_result(key: str, max_ops: int) -> dict:
    """Everything a budgeted lenient compile of *key* decides, uncached."""
    spec = kernel_spec(key)
    budget = IsetBudget(max_ops=max_ops)
    with use_cache(None):
        ck = compile_kernel(spec.program(), nprocs=spec.nprocs,
                            params=spec.params, strict=False, budget=budget)
    return {
        "mpi": ck.python_source("mpi"),
        "shmem": ck.python_source("shmem"),
        "diagnostics": [[d.code, d.message] for d in ck.diagnostics],
        "ops": budget.ops,
        "trips": budget.trips,
    }


@pytest.fixture(scope="module")
def fresh() -> "dict[tuple[str, int], dict]":
    """Each target compiled alone in its own fresh interpreter."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    procs = {
        target: subprocess.Popen(
            [sys.executable, "-c",
             f"import json, sys; sys.path.insert(0, {here!r}); "
             "from test_compile_history import target_result; "
             f"print(json.dumps(target_result(*{target!r})))"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for target in TARGETS
    }
    out = {}
    for target, proc in procs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, target
        out[target] = json.loads(stdout)
    return out


def test_after_a_compile_of_the_same_source(fresh):
    target = TARGETS[0]
    assert fresh[target]["trips"] == 1  # the case a warm memo would hide
    spec = kernel_spec(target[0])
    with use_cache(None):
        compile_kernel(spec.source, nprocs=spec.nprocs, params=spec.params)
    assert target_result(*target) == fresh[target]


def test_after_seeded_histories(fresh, tmp_path):
    """Strict and lenient compiles of the table's rows through a plan
    cache, its LRU tier dropped now and then, before each target."""
    rows = all_specs()
    for seed in range(5):
        rng = random.Random(seed)
        cache = PlanCache(PlanCacheConfig(directory=str(tmp_path / f"h{seed}")))
        with use_cache(cache):
            for target in rng.sample(TARGETS, len(TARGETS)):
                for _ in range(2):
                    row = rng.choice(rows)
                    # a lenient pipelined row degrades its whole solve
                    # (seconds); strict refuses it after the same analysis
                    strict = row.pipelined or rng.random() < 0.5
                    try:
                        compile_kernel(row.program(), nprocs=row.nprocs,
                                       params=row.params, strict=strict)
                    except CodegenUnsupported:
                        assert strict
                    if rng.random() < 0.3:
                        cache.clear_lru()
                assert target_result(*target) == fresh[target], (seed, target)


def test_analysis_sids_do_not_depend_on_history():
    """A source analyzed without code generation numbers its statements
    from 1, whatever compiled before it in the process."""
    def live_sids():
        unit = analyzed_unit(kernels.Y_SOLVE_SP, 4, {"n": 12, "m": 0})
        return [ev.stmt.sid for _root, plan in unit.nest_plans
                for ev in plan.live_events()]

    first = live_sids()
    with use_cache(None):
        compile_kernel(kernels.LHSY_SP, 4, {"n": 17})
    assert first == live_sids() == live_sids() == [8, 9, 10, 13]


def test_inlined_names_do_not_depend_on_history():
    """Inlining names a callee's locals from the caller's own symbols, so
    a lenient compile of a call tree emits the same node programs every
    time in one process."""
    with cache_disabled():
        texts = [
            [ck.python_source(t) for t in ("mpi", "shmem")]
            for ck in (compile_kernel(kernels.BT_SOLVE_CELL, 4, {"n": 13},
                                      strict=False) for _ in range(2))
        ]
    assert texts[0] == texts[1]
    assert "q_inl1" in texts[0][0]
