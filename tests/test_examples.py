"""Every example script must run clean end to end (they self-verify), and
so must README's self-contained fault-injection snippet."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed:\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    # each script asserts its own correctness internally; just require output
    assert proc.stdout.strip()


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable (b)


def test_readme_fault_injection_snippet(monkeypatch):
    """The snippet's first run loses rank 2 and raises RankCrashed; the
    rerun resumes from the checkpoint store and is bitwise the fault-free
    run."""
    import repro.parallel
    from repro.nas.verify import VERIFY_GRID, VERIFY_STEPS
    from repro.runtime import RankCrashed

    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Fault injection & chaos testing", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)

    real = repro.parallel.run_parallel
    outcomes = []

    def recorded(*args, **kw):
        try:
            result = real(*args, **kw)
        except Exception as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(result)
        return result

    monkeypatch.setattr(repro.parallel, "run_parallel", recorded)
    scope: dict = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert outcomes[0] is RankCrashed and len(outcomes) == 2
    fault_free = real("sp", "dhpf", 4, VERIFY_GRID, VERIFY_STEPS,
                      functional=True)
    assert np.array_equal(scope["r"].u, fault_free.u)
