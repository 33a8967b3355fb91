import numpy as np
import pytest

import diamondnet as dn


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Touch every kernel once so JIT compilation stays out of timed sections."""
    rt = dn.RateTable([1.0, 2.0], [2.0, 1.0])
    dn.omega_fast(rt)
    dn.omega_bruteforce(rt)
    dn.sandwich(rt)
    dn.omega_k_bruteforce(rt, 1)
    net = dn.network_from(rt, snr=1.0)
    dn.af_rate(net, np.ones(2))
    dn.af_optimize(net)
