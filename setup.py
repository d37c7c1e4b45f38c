"""Setuptools shim.

The evaluation environment has no network and no `wheel` package, so
PEP 517 editable installs (`bdist_wheel`) fail.  This setup.py enables the
legacy editable path: `pip install -e . --no-build-isolation --no-use-pep517`,
and plain `pip install -e .` falls back to it on older pips.
"""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "dhpf-py: reproduction of the Rice dHPF HPF compilation techniques "
        "(SC'98) - frontend, integer-set framework, computation partitioning, "
        "SPMD codegen, simulated MPI runtime, NAS SP/BT evaluation"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
