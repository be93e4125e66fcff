"""Environment for tests that start a Python child process: the child imports
dlab from this checkout's ``src``, whether or not the package is installed."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}
