"""Make the benchmark's modules importable from its tests.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import prepare_process  # noqa: E402

prepare_process()
