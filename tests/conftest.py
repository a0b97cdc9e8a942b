import os

# One BLAS thread, as CI and perfbench pin it: criterion 5's wall-clock
# parity window reads BLAS threading. This must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def svd_fails(monkeypatch):
    """Make numpy's SVD ('gesdd') and scipy's 'gesvd' fallback both fail to converge."""
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
