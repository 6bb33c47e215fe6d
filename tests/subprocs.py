"""Child Python processes that import qtwist from this checkout."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env(**extra) -> dict:
    """os.environ plus extra, with the checkout's src first on PYTHONPATH,
    so that a child process imports the package without an install."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}
