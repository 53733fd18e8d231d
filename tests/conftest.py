"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest
import scipy
import scipy.special

from periodicgp import core

# the platform every pinned digest was taken on.  numpy's FFTs and reductions may round
# differently with other SIMD extensions, so a digest failure names both platforms and
# a runner with other extensions can be told from a regression
PINNED_PLATFORM = ("numpy 2.4.6, scipy 1.17.1, "
                   "SIMD baseline X86_V2, found X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


@pytest.fixture(scope="session")
def pinned_platform() -> str:
    """A digest test's failure message: the pinning platform and this one."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    here = (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"SIMD baseline {' '.join(simd['baseline'])}, found {' '.join(simd['found'])}")
    return f"digests pinned on {PINNED_PLATFORM}; this is {here}"


@pytest.fixture
def without_scipy_special(monkeypatch):
    """core._scipy_ufuncs uncached, with the scipy.special package out of sys.modules.

    The suite has imported scipy.special already (through scipy.stats), so the helper's stub
    and fallback branches run only from here.  Its extension modules stay loaded: an
    extension is not loaded twice in one process.  Both entries are restored afterwards;
    a re-import of the package in between also rebinds scipy.special, so that is kept too.
    """
    monkeypatch.setattr(scipy, "special", scipy.special)
    monkeypatch.delitem(sys.modules, "scipy.special")
    core._scipy_ufuncs.cache_clear()
    yield
    core._scipy_ufuncs.cache_clear()
