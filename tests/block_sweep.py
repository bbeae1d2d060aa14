"""Block-size sweep for the blockwise pair and query kernels.

Times four calls at each candidate value of ``ckomega.fields._BLOCK_ELEMS``
(2**16 to 2**21 elements) and prints one table row per size: the median
wall time in ms over repeated calls, and the tracemalloc peak in MB of one
further call. It asserts nothing and pytest does not collect it.

    PYTHONPATH=src OMP_NUM_THREADS=1 python tests/block_sweep.py [--repeats 9]

The calls:
- lambda: whitney_lambda on a random field, m = 300, n = 3, k = 2;
- mcshane: a McShane extension of 180 points in R^3 at 1000 queries;
- rho: CutoffFamily(3, 1).rho on the 51^3 lattice of n = 3, N = 4 (the
  pointwise cutoff; smooth_EN reads the cutoff per axis);
- smooth_EN: n = 3, N = 4, ell = 1 at 3 points.
"""

from __future__ import annotations

import argparse
import statistics
import time
import tracemalloc

import numpy as np

import ckomega.fields as fields
from ckomega import modulus as mo
from ckomega.cutoff import CutoffFamily
from ckomega.extension import mcshane_extension
from ckomega.fields import NormContext, field_from_data, field_from_jets, jet, multi_indices
from ckomega.jackson import smooth_EN
from ckomega.whitney import whitney_lambda

SIZES = [1 << e for e in range(16, 22)]


def calls():
    rng = np.random.default_rng(0)
    J = len(multi_indices(3, 2))
    lam_field = field_from_jets([jet(p, rng.normal(size=J), 2) for p in rng.uniform(-1, 1, (300, 3))])
    lam_ctx = NormContext(2, 3, mo.power(0.5))
    ext = mcshane_extension(field_from_data(rng.uniform(-1, 1, (180, 3)), rng.normal(size=180)),
                            mo.power(0.5))
    Q = rng.uniform(-1.5, 1.5, (1000, 3))
    g = np.linspace(-4.0 * np.sqrt(3.0), 4.0 * np.sqrt(3.0), 51, endpoint=False)
    lattice = np.stack([a.ravel() for a in np.meshgrid(g, g, g, indexing="ij")], axis=1)
    cutoff = CutoffFamily(3, 1)
    X = np.random.default_rng(3).uniform(-1, 1, (3, 3))

    def f(Y):
        return np.exp(np.sin(0.7 * Y[:, 0])) * np.cos(0.3 * Y[:, -1])

    return {
        "lambda": lambda: whitney_lambda(lam_field, lam_ctx),
        "mcshane": lambda: ext(Q),
        "rho": lambda: cutoff.rho(lattice),
        "smooth_EN": lambda: smooth_EN(f, 1, 4, X),
    }


def measure(fn, repeats: int):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * statistics.median(times), peak / 1e6


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    fns = calls()
    print("| _BLOCK_ELEMS | " + " | ".join(f"{name} ms (MB)" for name in fns) + " |")
    print("|---" * (len(fns) + 1) + "|")
    default = fields._BLOCK_ELEMS
    try:
        for size in SIZES:
            fields._BLOCK_ELEMS = size
            cells = [measure(fn, args.repeats) for fn in fns.values()]
            print(f"| 2^{size.bit_length() - 1} | "
                  + " | ".join(f"{ms:.1f} ({mb:.1f})" for ms, mb in cells) + " |", flush=True)
    finally:
        fields._BLOCK_ELEMS = default


if __name__ == "__main__":
    main()
