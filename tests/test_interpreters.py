"""The command line prints the same bytes under every installed CPython that
``pyproject.toml`` admits (``requires-python``) as under the running one.

The source rules parse every module as the oldest supported Python, but a
parse does not run the library calls that a version added
(``int.bit_count``, ``zip(strict=True)``); these tests run them.  They look
for interpreters named ``python3.N`` on ``PATH`` and in pyenv's versions
directory next to the running interpreter, probe each (a pyenv shim for a
version that is not installed fails), keep one per minor version from the
floor up, the running one's excluded, and skip when that leaves none.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_source_rules import _minimum_python

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:2], sys.executable)"

COMMANDS = {
    "verify-thm-a": ["verify", "thm-a"],
    "verify-equivariance": ["verify", "equivariance", "--genus", "3"],
    "tau-too-shallow": ["tau", "--k", "2"],
    "basis-json": ["basis", "--space", "G", "--genus", "2", "--k", "2", "--json"],
    "basis-D-2-3": ["basis", "--space", "D", "--genus", "2", "--k", "3"],
    "degree-identity": ["degree", "--builtin", "identity"],
    "det": ["det"],
    "verify-morita-prop": ["verify", "morita-prop", "--count", "3"],
    "tau-past-genus-budget": ["tau", "--builtin", "phi", "--genus", "9", "--k", "1"],
}


def _candidates():
    major, minor = _minimum_python()
    names = [f"python{major}.{n}" for n in range(minor, minor + 20)]
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if folder:
            yield from (Path(folder) / name for name in names)
    yield from sorted(Path(sys.base_prefix).parent.glob("*/bin/python3"))


@functools.lru_cache(maxsize=None)
def _interpreters() -> dict:
    """{(major, minor): executable} of one working CPython per supported
    minor version other than the running one's, the first found of each; a
    shim's executable is the interpreter it runs."""
    floor, running = _minimum_python(), sys.version_info[:2]
    found, probed = {}, set()
    for path in _candidates():
        if not path.is_file() or path.resolve() in probed:
            continue
        probed.add(path.resolve())
        try:
            done = subprocess.run([str(path), "-c", PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = done.stdout.strip().split(maxsplit=3)
        if done.returncode or len(words) != 4 or words[0] != "cpython":
            continue
        version = int(words[1]), int(words[2])
        if version >= floor and version != running:
            found.setdefault(version, words[3])
    return found


def _run(python, argv) -> tuple:
    # only the package on the path: another version's site directories in
    # an inherited PYTHONPATH would not import
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [str(python), "-m", "lagtrace.cli", *argv], env=env, capture_output=True, timeout=300
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_every_supported_python_prints_the_same_bytes(argv):
    others = _interpreters()
    if not others:
        pytest.skip("no other CPython from the requires-python floor up is installed")
    expected = _run(sys.executable, argv)
    _, out, err = expected
    assert (out or err) and b"Traceback" not in err, err.decode()
    for version, python in sorted(others.items()):
        assert _run(python, argv) == expected, f"Python {version} ({python}) differs"
