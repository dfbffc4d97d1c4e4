"""CLI byte check against another commit: every command over every name
combination of the fixtures must print the same bytes and exit with the
same code as at REF.

    python tests/cli_equivalence.py REF

REF is any git revision, such as the parent commit.  The script extracts
REF's src/ with `git archive` into a temporary directory, then runs each
command of this tree's `liaison.cli._COMMANDS` over every ordered
combination (repeats allowed) of the session names of its usage's kinds,
for each file in fixtures/, in text and with --json.  Each run is
`python -S -m liaison.cli`, once with this tree's src/ and once with REF's.
It compares stdout, stderr and the exit code, prints the run count and
every run that differs, and exits 1 on any difference.  Standard library
only; not collected by pytest, as it needs a ref to compare with.
"""

import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2


def _runs():
    """Every argv to run, fixture session first."""
    sys.path.insert(0, str(ROOT / "src"))
    from liaison.cli import _COMMANDS
    from liaison.sessions import parse_session

    runs = []
    for path in sorted((ROOT / "fixtures").glob("*.session")):
        session = parse_session(path.read_text(encoding="utf-8"))
        names = {"IDEAL": session.ideals, "POINT": session.points, "DLINE": session.dlines}
        for command, (_, usage) in sorted(_COMMANDS.items()):
            pools = [sorted(names[kind]) for kind in usage.split()]
            for args in itertools.product(*pools):
                argv = [str(path.relative_to(ROOT)), command, *args]
                runs += [argv, [*argv, "--json"]]
    return runs


def _run(argv, src):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "liaison.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return proc.stdout, proc.stderr, proc.returncode


def extract(ref, dest, *paths):
    """Extract git revision ref, or only its paths if any are named, into
    dest; False, with git's message on stderr, when ref cannot be read."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, *paths], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the data filter, where this Python has it, refuses unsafe members
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return True


def main():
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: python tests/cli_equivalence.py REF", file=sys.stderr)
        return 2
    runs = _runs()
    with tempfile.TemporaryDirectory(prefix="liaison-cli-equivalence-") as tmp:
        if not extract(args[0], tmp, "src"):
            return 2
        trees = (ROOT / "src", Path(tmp) / "src")
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(lambda job: _run(*job), itertools.product(runs, trees)))
    differ = 0
    for argv, here, there in zip(runs, outcomes[::2], outcomes[1::2]):
        if here != there:
            differ += 1
            print(f"differs: {' '.join(argv)}")
            for label, mine, theirs in zip(("stdout", "stderr", "exit"), here, there):
                if mine != theirs:
                    print(f"  {label}: {theirs!r} at {args[0]}, {mine!r} here")
    print(f"{len(runs)} runs per side, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
