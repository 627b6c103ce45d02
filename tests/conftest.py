"""Test-session set-up, run before any test module imports numpy."""

import os

from hypothesis import Phase, settings

# On a machine with more than one CPU, numpy's OpenBLAS starts a thread pool
# when numpy loads, and the residual walk forks its workers only from a
# process with one OS thread.  One BLAS thread, as the benchmark's processes
# run with, keeps this process single-threaded, so every verify test here
# takes the split walk and the tests that force the split fork safely.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# a mutant is killed by its first failing example, so the mutation register's
# pytest runs (tests/mutations.py) load this profile, which does not shrink it
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                             Phase.target])
