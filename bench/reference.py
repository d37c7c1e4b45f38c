"""Seeded inputs and reference outputs that do not come from the compiler.

The reference for every kernel is the serial tree-walking interpreter
(``repro.ir.interp.Interpreter``) run on the original source text.  At
class W the interpreter needs ~24 s, more than a whole benchmark run may
take, so ``bench/expected.json`` holds its output hashes for the default
seed, and other seeds use the hand-written NumPy transcription of SP
``compute_rhs`` below — which every default-seed run checks bitwise
against the interpreter's committed hashes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.frontend import parse_source
from repro.ir.interp import FortranArray, Interpreter

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def sha256_array(data: np.ndarray) -> str:
    """Hash of an array's logical (C-order) contents."""
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def sha256_arrays(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    return {name: sha256_array(data) for name, data in sorted(arrays.items())}


def _entry(kernel):
    sub = parse_source(kernel.source).get(kernel.entry)
    return sub, {**sub.symbols.parameter_values(), **kernel.params}


def make_inputs(kernel, seed: int) -> dict[str, np.ndarray]:
    """One ``default_rng(|seed|)`` stream fills every array of the kernel,
    in name order, with values in [1, 2); SP ``compute_rhs`` gets its
    energy component lifted so ``sqrt(energy - kinetic)`` stays real."""
    sub, merged = _entry(kernel)
    rng = np.random.default_rng(abs(seed))
    inputs = {}
    for decl in sorted(sub.symbols.arrays(), key=lambda d: d.name.lower()):
        proto = FortranArray.from_decl(decl, merged)
        inputs[decl.name.lower()] = np.asfortranarray(
            rng.random(proto.data.shape) + 1.0
        )
    if kernel.lift_energy:
        inputs["u"][..., 4] += 20
    return inputs


def interpret(kernel, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Final value of every array after the serial interpreter ran the
    kernel's original source (call tree and all) on *inputs*."""
    prog = parse_source(kernel.source)
    sub, merged = _entry(kernel)
    args = {}
    for decl in sub.symbols.arrays():
        name = decl.name.lower()
        proto = FortranArray.from_decl(decl, merged)
        args[name] = FortranArray(
            proto.data.shape, proto.lower, data=inputs[name].copy(order="F")
        )
    frame = Interpreter(prog, kernel.params).run(
        kernel.entry, args=args, scalars=kernel.scalars
    )
    return {name: frame.values[name].data for name in args}


def numpy_compute_rhs_sp(kernel, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Hand transcription of ``kernels.COMPUTE_RHS_SP``, statement by
    statement and in source operand order, so it matches the interpreter
    bitwise (elementwise IEEE ops do not depend on evaluation batching)."""
    n = kernel.scalars["n"]
    c1c2, c2, dt = (kernel.scalars[k] for k in ("c1c2", "c2", "dt"))
    out = {name: data.copy(order="F") for name, data in inputs.items()}
    u, rhs, forcing = out["u"], out["rhs"], out["forcing"]
    a = slice(0, n)
    rho_inv = 1.0 / u[a, a, a, 0]
    out["rho_i"][a, a, a] = rho_inv
    out["us"][a, a, a] = u[a, a, a, 1] * rho_inv
    out["vs"][a, a, a] = u[a, a, a, 2] * rho_inv
    out["ws"][a, a, a] = u[a, a, a, 3] * rho_inv
    out["square"][a, a, a] = 0.5 * (
        u[a, a, a, 1] * u[a, a, a, 1]
        + u[a, a, a, 2] * u[a, a, a, 2]
        + u[a, a, a, 3] * u[a, a, a, 3]
    ) * rho_inv
    out["qs"][a, a, a] = out["square"][a, a, a] * rho_inv
    aux = c1c2 * rho_inv * (u[a, a, a, 4] - out["square"][a, a, a])
    out["speed"][a, a, a] = np.sqrt(aux)
    out["ainv"][a, a, a] = 1.0 / out["speed"][a, a, a]
    rhs[a, a, a, :] = forcing[a, a, a, :]

    i = slice(1, n - 1)

    def d(field, axis):
        """field(+1) and field(-1) along *axis* over the interior."""
        hi = [i, i, i]
        lo = [i, i, i]
        hi[axis] = slice(2, n)
        lo[axis] = slice(0, n - 2)
        return out[field][tuple(hi)], out[field][tuple(lo)]

    sq_p, sq_m = d("square", 0)
    us_p, us_m = d("us", 0)
    vs_p, vs_m = d("vs", 0)
    ws_p, ws_m = d("ws", 0)
    qs_p, qs_m = d("qs", 0)
    ri_p, ri_m = d("rho_i", 0)
    rhs[i, i, i, 1] = rhs[i, i, i, 1] + c2 * (sq_p - sq_m) + us_p - us_m
    rhs[i, i, i, 2] = rhs[i, i, i, 2] + vs_p - vs_m
    rhs[i, i, i, 3] = rhs[i, i, i, 3] + ws_p - ws_m
    rhs[i, i, i, 4] = rhs[i, i, i, 4] + qs_p - qs_m + ri_p - ri_m

    sq_p, sq_m = d("square", 1)
    vs_p, vs_m = d("vs", 1)
    qs_p, qs_m = d("qs", 1)
    ri_p, ri_m = d("rho_i", 1)
    rhs[i, i, i, 2] = rhs[i, i, i, 2] + c2 * (sq_p - sq_m) + vs_p - vs_m
    rhs[i, i, i, 4] = rhs[i, i, i, 4] + qs_p - qs_m + ri_p - ri_m

    sq_p, sq_m = d("square", 2)
    ws_p, ws_m = d("ws", 2)
    qs_p, qs_m = d("qs", 2)
    ri_p, ri_m = d("rho_i", 2)
    rhs[i, i, i, 3] = rhs[i, i, i, 3] + c2 * (sq_p - sq_m) + ws_p - ws_m
    rhs[i, i, i, 4] = rhs[i, i, i, 4] + qs_p - qs_m + ri_p - ri_m

    rhs[i, i, i, :] = rhs[i, i, i, :] * dt
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def reference_hashes(workload, inputs: dict, seed: int) -> tuple[dict, list[str]]:
    """``{kernel: {array: sha256}}`` for *workload* at *seed*, plus the
    problems found while producing it.

    The seed that ``expected.json`` was written for (the default seed)
    reads it.  Other seeds run the interpreter where it is fast enough
    and the NumPy transcription at class W; at the default seed the
    transcription is itself checked against the committed hashes."""
    expected = load_expected()
    if expected["seed"] != seed:
        expected = None
    hashes: dict[str, dict[str, str]] = {}
    problems: list[str] = []
    computed: dict[tuple, dict[str, str]] = {}  # a rank sweep shares one reference

    def live(kernel, how) -> dict[str, str]:
        key = (kernel.source, kernel.entry, repr(kernel.params), repr(kernel.scalars))
        if key not in computed:
            computed[key] = sha256_arrays(how(kernel, inputs[kernel.name]))
        return computed[key]

    for kernel in workload.kernels:
        committed = (
            expected["workloads"][workload.name][kernel.name] if expected else None
        )
        if kernel.transcribed:
            transcription = live(kernel, numpy_compute_rhs_sp)
            if committed is not None and transcription != committed:
                problems.append(
                    f"{kernel.name}: NumPy transcription differs from the "
                    "interpreter hashes in expected.json"
                )
            hashes[kernel.name] = committed or transcription
        else:
            hashes[kernel.name] = committed or live(kernel, interpret)
    return hashes, problems


def write_expected(workloads, seed: int) -> None:
    """Regenerate ``expected.json`` from the interpreter (class W takes
    ~24 s per kernel, hence committed)."""
    doc = {"seed": seed, "source": "repro.ir.interp.Interpreter", "workloads": {}}
    for workload in workloads:
        doc["workloads"][workload.name] = {
            kernel.name: sha256_arrays(interpret(kernel, make_inputs(kernel, seed)))
            for kernel in workload.kernels
        }
    tmp = EXPECTED_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, EXPECTED_PATH)
