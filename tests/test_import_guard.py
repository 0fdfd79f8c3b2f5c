"""``import legderiv`` loads no test-only package and no exact arithmetic.

numpy, scipy and mpmath are test-only dependencies, and the nu-series
tables are built in float, so neither fractions nor decimal belongs on the
import path either (both would add to cold start).
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_AT_IMPORT = ("numpy", "scipy", "mpmath", "fractions", "decimal")


def test_import_loads_no_test_only_module():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import legderiv; "
        f"print(' '.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
