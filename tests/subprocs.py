"""Child Python processes that import qtwist from this checkout."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env(src: Path = ROOT / "src", **extra) -> dict:
    """os.environ plus extra, with src (the checkout's, or the folder of a
    copy of the package) first on PYTHONPATH, so that a child process
    imports the package from there without an install."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}
