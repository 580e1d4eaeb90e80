"""Let the CLI tests' child processes import ncpoly from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path; the children read ``PYTHONPATH`` instead, so ``src`` goes there too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])
