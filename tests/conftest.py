"""Child interpreters started by the tests (``python -m bidouble``) import
the same source tree as the test process: pytest puts ``src`` on
``sys.path`` through ``pythonpath`` in ``pyproject.toml``, and this puts it
first on ``PYTHONPATH`` too, so the suite runs from a checkout without an
install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
