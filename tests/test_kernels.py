import numpy as np

from diamondnet import kernels

KERNELS = ("brute_omega", "omega_sorted_scan", "omega_rows", "sandwich_scan", "af_rate_batch")


def test_backend_is_reported():
    # perfbench/report.py records the two constants on every run and
    # perfbench/tracing.py wraps the five kernels by name
    assert kernels.BACKEND == "numpy"
    assert kernels.HAVE_NUMBA is False
    for name in KERNELS:
        assert callable(getattr(kernels, name))


def test_subset_max_matches_definition():
    rng = np.random.default_rng(281)
    for n in range(7):
        x = rng.integers(0, 5, n).astype(float)
        table = kernels.subset_max(x)
        assert table.shape == (1 << n,)
        for mask in range(1 << n):
            assert table[mask] == max((x[i] for i in range(n) if mask >> i & 1), default=0.0)

