"""Make homokin (src/) importable for the benchmark's own tests.

Run them with ``python3 -m pytest perfbench`` from the repository root.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
