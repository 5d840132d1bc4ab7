"""The repo's performance ledger (see README.md in this directory).

One command, ``python3 benchmarks/perf/run.py --seed 1``, runs four
fixed workloads and prints every end-to-end metric named in the root
``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics instead.
"""

#: BLAS/OpenMP thread-count variables ``run.py`` pins to 1 before numpy is
#: imported (the host has two cores); recorded in every host fingerprint
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
