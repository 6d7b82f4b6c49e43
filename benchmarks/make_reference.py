#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks the default seed against.

    python3 benchmarks/make_reference.py [workload ...]

For each workload (all by default) this runs the configs of
``workloads.DEFAULT_SEED`` once and stores, per run, the moment series and
the final density in ``benchmarks/reference/<workload>.npz``.  It refuses to
store a run whose own gates fail.  Regenerate only in a change that
deliberately changes the program's outputs, and say so in that change.
"""

from __future__ import annotations

import sys

import run


def main(argv: list[str]) -> int:
    run.limit_blas_threads()
    run.import_program()
    import harness
    import numpy as np

    names = argv or list(run.workloads.WORKLOADS)
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        generated = run.workloads.generate(workload, run.workloads.DEFAULT_SEED)
        out_root = run.OUT_ROOT / f"reference-{workload}"
        try:
            arrays = harness.reference_arrays(generated, out_root)
        finally:
            harness.clear(out_root)
        np.savez_compressed(harness.reference_path(workload), **arrays)
        print(f"{workload}: {len(arrays)} arrays -> {harness.reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
