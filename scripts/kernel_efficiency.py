"""Per-method prefill kernel table: measured kernel time against plan cells.

For each prefill-kernel method of the oracle_2k workload (its budgets, read
from ``perfbench/workloads.py``) at n = 2048 with the benchmark's heads, on
both of its generators, the script builds each plan and its mask once, then
times ``masked_attention`` on the mask and ``dense_prefill`` on the input,
each as the minimum over ``--calls`` calls, with one BLAS thread.  Quest's
page plans run ``decode_step``, not the prefill kernel, and are left out.

Columns:

- ``ms``: the kernel call.
- ``sparsity``: ``plan_sparsity``'s achieved sparsity.  For the eviction
  plans it is the decode row's, not the prefill triangle's.
- ``product/plan``: the product cells the plan's tiles compute, holes
  included (``_Part.product``), over the cells of its mask; ``n/a`` where
  the kernel does not count them.
- ``speedup``: dense time over the plan's time.
- ``efficiency``: speedup over 1 / (1 - sparsity).  A kernel whose time
  follows its plan's cells reads 1.  When dense prefill gets faster, this
  figure can fall while every method's own time falls.

Run from the repository root: ``python3 scripts/kernel_efficiency.py``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from sparselab import attention, synthetic  # noqa: E402
from sparselab.patterns import accounting  # noqa: E402
from workloads import GENERATORS, HEADS, ORACLE_BUDGETS, ORACLE_N, build_explicit  # noqa: E402

PREFILL_METHODS = [m for m in ORACLE_BUDGETS if m != "quest"]


def best_ms(call, calls: int) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def product_cells(inputs, mask) -> int | None:
    """The cells of every product the mask's tiles take, or None when the
    kernel's blocks do not count them."""
    total = 0
    for head in range(inputs.num_q_heads):
        for tile in mask.tiles(inputs, head):
            for part in tile[1]:
                if not hasattr(part, "product"):
                    return None
                total += part.product
    return total


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return (
        f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, Python "
        f"{platform.python_version()}, numpy {np.__version__} on {blas_id}, one BLAS thread"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=3)
    args = parser.parse_args(argv)
    print(environment())
    print(f"n = {ORACLE_N}, heads {HEADS}, seed {args.seed}, min of {args.calls} calls")
    header = f"{'generator':<10} {'method':<15} {'level':<5} {'ms':>8} {'sparsity':>9}"
    print(f"{header} {'product/plan':>13} {'speedup':>8} {'efficiency':>11}")
    for generator in GENERATORS:
        inputs = synthetic.make_inputs(generator, ORACLE_N, seed=args.seed, **HEADS)
        dense = best_ms(lambda: attention.dense_prefill(inputs), args.calls)
        print(f"{generator:<10} {'dense':<15} {'':<5} {dense:8.1f}")
        for method in PREFILL_METHODS:
            for level, params in ORACLE_BUDGETS[method].items():
                plan = build_explicit(method, inputs, params)
                sparsity = accounting.plan_sparsity(plan).achieved_sparsity
                mask = accounting.to_cell_mask(plan, inputs.group_map)
                ms = best_ms(lambda: attention.masked_attention(inputs, mask), args.calls)
                product = product_cells(inputs, mask)
                ratio = "n/a" if product is None else f"{product / mask.num_cells():.2f}"
                speedup = dense / ms
                print(
                    f"{generator:<10} {method:<15} {level:<5} {ms:8.1f} {sparsity:9.3f} "
                    f"{ratio:>13} {speedup:8.2f} {speedup * (1 - sparsity):11.2f}"
                )


if __name__ == "__main__":
    main()
