"""The one way the tests start a Python child, the CLI's or a demo's.

The child is this interpreter under -S, with this checkout's src/ as its
only path entry beyond the standard library's: -S keeps site-packages off
the path, so every child the suite starts shows that the library runs on
the standard library alone (dependencies = []).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_python(*args, **kwargs):
    """`python -S args`; stdout and stderr are captured as text unless
    kwargs send them elsewhere."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-S", *map(str, args)], text=True, env=_ENV, **kwargs)


def run_cli(*argv, **kwargs):
    return run_python("-m", "liaison.cli", *argv, **kwargs)


def session_path(tmp_path, session):
    """A fixture's path as it is, or a file under tmp_path holding the
    session text."""
    if isinstance(session, Path):
        return session
    path = tmp_path / "inline.session"
    path.write_text(session)
    return path
