import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import topoinv
from topoinv import config
from topoinv.errors import TopoinvError


def test_every_public_name_resolves():
    """Each name in topoinv.__all__ is bound, so a removed function cannot
    linger in the public list."""
    assert [name for name in topoinv.__all__ if not hasattr(topoinv, name)] == []
    assert len(set(topoinv.__all__)) == len(topoinv.__all__)


def test_no_public_function_takes_a_tolerance():
    """Thresholds are read from DEFAULT_TOL: no function in topoinv.__all__,
    and no public method of a class there, has a parameter named like a
    tolerance."""
    functions = []
    for name in topoinv.__all__:
        obj = getattr(topoinv, name)
        if inspect.isfunction(obj):
            functions.append((name, obj))
        elif inspect.isclass(obj):
            functions += [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                          if inspect.isfunction(member) and not attr.startswith("_")]
    offenders = [(name, param) for name, fn in functions
                 for param in inspect.signature(fn).parameters if "tol" in param]
    assert offenders == []


def test_every_tolerance_is_read_by_the_library():
    """DEFAULT_TOL holds only thresholds that some module of topoinv reads;
    bounds that only the tests check live with the tests."""
    sources = "".join(path.read_text() for path in Path(topoinv.__file__).parent.glob("*.py")
                      if path.name != "config.py")
    unread = [f.name for f in dataclasses.fields(topoinv.DEFAULT_TOL)
              if f"DEFAULT_TOL.{f.name}" not in sources]
    assert unread == []


def test_every_config_constant_is_read_by_the_library():
    """Each module-level constant of config.py (DEFAULT_TOL and the default
    grid sizes) is read by another module of topoinv, so a constant whose
    last reader goes cannot linger."""
    sources = "".join(path.read_text() for path in Path(topoinv.__file__).parent.glob("*.py")
                      if path.name != "config.py")
    constants = [name for name in vars(config) if name.isupper()]
    assert {"DEFAULT_TOL", "N_2D", "N_UP"} <= set(constants)
    assert [name for name in constants if not re.search(rf"\b{name}\b", sources)] == []


def test_every_error_is_raised_by_the_library():
    """Every TopoinvError subclass is raised by some module of topoinv, so
    an error that no code path can reach does not linger in errors.py."""
    sources = "".join(path.read_text() for path in Path(topoinv.__file__).parent.glob("*.py")
                      if path.name != "errors.py")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    unraised = [cls.__name__ for cls in subclasses(TopoinvError)
                if f"raise {cls.__name__}(" not in sources]
    assert unraised == []

_SCIPY_PROBE = """
import contextlib, io, sys
import topoinv, topoinv.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = topoinv.cli.main(["fkm", "--model", "kane_mele", "--json"])
print(code, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_the_program_runs_without_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that imports
    topoinv and its CLI and runs an fkm request, the path that takes
    unitary logarithms, has loaded no scipy module, and no source file of
    the package names it."""
    src = Path(topoinv.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "[]"]
    assert [path.name for path in sorted(src.rglob("*.py")) if "scipy" in path.read_text()] == []
