"""The paper's experiment drivers live in ``benchmarks/paper``, outside the
package; the tests here import them as ``paper.<module>``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
