"""Make the library sources importable for the benchmark's own tests.

Run them from the repository root with `python3 -m pytest perfbench`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
