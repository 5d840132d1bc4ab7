"""Entry point of the performance ledger.

    python3 benchmarks/perf/run.py --seed 1                # every workload, end to end
    python3 benchmarks/perf/run.py --seed 1 --trace 1      # every workload, per layer
    python3 benchmarks/perf/run.py --workload cold-sim --seed 1 --seconds 12 --trace 0

Everything is under the ``__main__`` check because the workers of the
real-parallel backend are spawned, and spawned children import the main
module again.
"""

if __name__ == "__main__":
    import os
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    root = here.parents[1]
    # the program under test lives in src/; this directory is the package
    # benchmarks.perf, not a place to import top-level modules from
    sys.path[:] = [str(root / "src"), str(root)] + [p for p in sys.path if Path(p) != here]

    from benchmarks.perf import THREAD_ENV
    from benchmarks.perf.supervise import SUPERVISED, supervise

    # the work is done in a child, so that this process can see to it that
    # no worker or resource tracker outlives the run (see supervise.py)
    if SUPERVISED not in os.environ:
        sys.exit(supervise([sys.executable, __file__, *sys.argv[1:]]))

    # BLAS is pinned to one thread, which has to happen before the driver
    # imports numpy
    os.environ.update(dict.fromkeys(THREAD_ENV, "1"))

    from benchmarks.perf.driver import main

    sys.exit(main())
