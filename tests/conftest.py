"""Fixtures shared by the test modules."""

import numpy as np
import pytest
import scipy

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
