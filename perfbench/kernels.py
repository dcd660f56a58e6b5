"""Fixed-size microbenchmarks of the kernels the nonlinear march calls.

    python3 perfbench/kernels.py REPORT

Per-call times (median of repeated batches) of to_grid, product_dealiased,
gradient_dot, check_degeneracy_guard, acceleration, forcing_f and
PropagatorTable.build, and the time per step of a short nonlinear.solve
march, at 1D N in {8, 64, 256} and 2D N in {16, 48}.  Results go to REPORT
as JSON: metric name -> value, e.g. ``kernel.product_dealiased.2d-n48_us``.
"""

import json
import math
import statistics
import sys
import time

import numpy as np

from bck_sim.linear import PropagatorTable, propagator_table
from bck_sim.model import (
    EvolutionState,
    ModelParams,
    acceleration,
    check_degeneracy_guard,
    forcing_f,
    make_compatibility_data,
)
from bck_sim.nonlinear import solve
from bck_sim.spectral import DomainSpec, SpectralField, gradient_dot, product_dealiased, to_grid

# (label, dimension, modes per axis, march steps timed per repeat); the
# labels match common.BASELINE_STEP_MS
SIZES = (
    ("1d-n8", 1, 8, 80),
    ("1d-n64", 1, 64, 50),
    ("1d-n256", 1, 256, 15),
    ("2d-n16", 2, 16, 30),
    ("2d-n48", 2, 48, 6),
)
PARAMS = ModelParams(a=1.0, b=1.0, c=1.0, k=0.2, s=1)
DT = 1e-3
BATCH_S = 0.01
REPEATS = 3


def per_call_s(fn):
    """Median over REPEATS batches of at least BATCH_S of the per-call time."""
    fn()
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= BATCH_S:
            break
        loops *= 2 if elapsed <= 0.0 else max(2, math.ceil(BATCH_S / elapsed))
    times = [elapsed / loops]
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times)


def _field(domain, rng, scale):
    lam = np.asarray(domain.eigenvalue_grid)
    return SpectralField(domain, scale * rng.standard_normal(domain.coeff_shape) * (lam / domain.lambda0) ** -2.0)


def sweep_size(label, dim, n, steps):
    domain = DomainSpec(dim, (math.pi,) * dim, n)
    rng = np.random.default_rng(0)
    u, ut, utt = (_field(domain, rng, 1e-3) for _ in range(3))
    state = EvolutionState(0.0, u, ut, utt)
    uttt = acceleration(state, PARAMS)
    kernels = {
        "to_grid": lambda: to_grid(ut),
        "product_dealiased": lambda: product_dealiased(ut, uttt),
        "gradient_dot": lambda: gradient_dot(u, utt),
        "guard": lambda: check_degeneracy_guard(ut, PARAMS, 0.0),
        "acceleration": lambda: acceleration(state, PARAMS),
        "forcing_f": lambda: forcing_f(state, uttt, PARAMS),
        "table_build": lambda: PropagatorTable.build(domain, PARAMS, DT),
    }
    out = {f"kernel.{name}.{label}_us": 1e6 * per_call_s(fn) for name, fn in kernels.items()}

    data = make_compatibility_data(SpectralField.single_mode(domain, (1,) * dim, 1e-3), ut * 0.0, ut * 0.0, PARAMS)
    propagator_table(domain, PARAMS, DT)
    per_step = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        solve(data, PARAMS, steps * DT, DT)
        per_step.append((time.perf_counter() - t0) / steps)
    out[f"kernel.step.{label}_ms"] = 1e3 * statistics.median(per_step)
    return out


def main(argv):
    results = {}
    for label, dim, n, steps in SIZES:
        results.update(sweep_size(label, dim, n, steps))
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
