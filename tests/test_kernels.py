from diamondnet import kernels

KERNELS = ("brute_omega", "omega_sorted_scan", "omega_rows", "sandwich_scan", "af_rate_batch")


def test_backend_is_reported():
    # perfbench/report.py records the two constants on every run and
    # perfbench/tracing.py wraps the five kernels by name
    assert kernels.BACKEND == "numpy"
    assert kernels.HAVE_NUMBA is False
    for name in KERNELS:
        assert callable(getattr(kernels, name))
