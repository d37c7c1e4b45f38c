"""The compiler imports with numpy alone.

A fresh interpreter blocks the heavy packages the compiler once pulled in,
then imports every ``repro`` module and every ``bench/`` module.  A
dependency that creeps back fails here with the module that imports it.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCKED = ("networkx", "scipy")

SCRIPT = textwrap.dedent("""
    import importlib, os, pkgutil, sys

    root, blocked = sys.argv[1], sys.argv[2:]
    for name in blocked:
        sys.modules[name] = None  # any import of it raises ImportError
    bench = os.path.join(root, "bench")
    sys.path[:0] = [os.path.join(root, "src"), bench]

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for name in sorted(os.listdir(bench)):
        if name.endswith(".py") and not name.startswith("test_"):
            importlib.import_module(name[:-3])
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] in blocked and sys.modules[m] is not None)
    assert not loaded, loaded
    print("imported", sum(m.startswith("repro") for m in sys.modules))
""")


def test_repro_and_bench_import_without_heavy_dependencies():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, ROOT, *BLOCKED],
        capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("imported ")
