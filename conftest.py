"""Pytest root conftest.

Ensures the ``src`` layout is importable even when the package has not been
pip-installed (e.g. fully offline environments), and that the test-only
modules under ``tests`` (the per-bit oracle, ``per_bit_engine``) are too.
"""

import os
import sys

for _directory in ("src", "tests"):
    _path = os.path.join(os.path.dirname(__file__), _directory)
    if _path not in sys.path:
        sys.path.insert(0, _path)
