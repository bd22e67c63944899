"""Build, cache and load the compiled sweep (``_chain.c``).

``library()`` returns the path of a shared library that loads, building it on
first use: with the compiler sysconfig names (``CC``), else ``cc``, at
``-O2 -ffp-contract=off`` and no other optimization flag, so that the
compiled sweep rounds as the chain does. The file is named by a hash of the
source, the compiler command, the flags and the platform. It is written under
a temporary name and moved into ``$XDG_CACHE_HOME/surveysynth``, else
``~/.cache/surveysynth``, else the temp dir, so that a reader never sees half a
file; then its SHA-256 goes beside it (``.sha256``) the same way. A cached
file that does not match its digest is rebuilt, not loaded: the loader maps a
truncated library without complaint and the process dies of SIGBUS when it
touches the missing pages. A file that will not load is rebuilt too. When no
library can be had, ``library()`` returns None and fits take the Python route.
``load(path)`` returns the sweep function, or None. Only ``mcmc`` imports this
module, on the first fit in a process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_chain.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_I, _F, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


class Chain(ctypes.Structure):
    """``struct chain`` of ``_chain.c``: the fit's sizes and settings, then
    the addresses of its schedule and of one chain's buffers."""

    _fields_ = [(name, _I) for name in ("T", "B", "monotone", "burn", "thin", "window", "n_ix",
                                        "n_out", "population", "exact")]
    _fields_ += [("wt0", _F), ("target", _F)]
    _fields_ += [(name, _P) for name in ("ix", "fx", "outs", "th", "lp", "ll", "nlp", "nll",
                                         "gam", "var", "log_scale", "scale", "frozen", "acc",
                                         "counts", "out_theta", "out_sig", "out_pi", "out_gam",
                                         "win")]


def compilers() -> list[list[str]]:
    """The compiler commands to build with, in turn: sysconfig's ``CC``, then ``cc``."""
    commands = [shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]]
    return [c for i, c in enumerate(commands) if c and c not in commands[:i]]


_loaded: dict[str, object] = {}


def load(path: str):
    """The sweep function of the library at ``path``, or None if it will
    not load."""
    if path not in _loaded:
        try:
            run = ctypes.CDLL(path).ss_chain_run
        except (OSError, AttributeError):
            return None
        run.argtypes = [ctypes.POINTER(Chain), _I, _I, _P, _P]
        run.restype = None
        _loaded[path] = run
    return _loaded[path]


def _cache_dir() -> Path | None:
    """The first of the cache directories that exists or can be made."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    places = [Path(xdg)] if xdg else []
    try:
        places.append(Path.home() / ".cache")
    except RuntimeError:  # no home directory
        pass
    places.append(Path(tempfile.gettempdir()))
    for place in places:
        folder = place / "surveysynth"
        try:
            folder.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(folder, os.W_OK):
            return folder
    return None


def _digest_path(path: Path) -> Path:
    return path.with_suffix(".sha256")


def _intact(path: Path) -> bool:
    """Whether ``path`` holds the bytes its digest file names."""
    try:
        want = _digest_path(path).read_text()
        return hashlib.sha256(path.read_bytes()).hexdigest() == want
    except OSError:
        return False


def _put(path: Path, write) -> None:
    """``write(name)`` to a temporary file beside ``path``, moved onto it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-", suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(cc: list[str], path: Path) -> bool:
    """Compile the source to ``path``, then write its digest."""
    def compile_to(name):
        subprocess.run([*cc, *FLAGS, str(SOURCE), "-o", name, "-lm"], check=True,
                       capture_output=True, timeout=300)

    try:
        _put(path, compile_to)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        _put(_digest_path(path), lambda name: Path(name).write_text(digest))
        return True
    except (OSError, subprocess.SubprocessError):
        return False


@functools.cache
def library() -> str | None:
    """The path of the compiled sweep's library, built if it is not cached
    or will not load; None when it cannot be had."""
    folder = _cache_dir()
    try:
        source = SOURCE.read_bytes()
        commands = compilers()
    except (OSError, ValueError):  # no source shipped, or a CC shlex cannot split
        return None
    if folder is None:
        return None
    for cc in commands:
        key = hashlib.sha256(repr((source, cc, FLAGS, sysconfig.get_platform())).encode())
        path = folder / f"chain-{key.hexdigest()[:16]}.so"
        if _intact(path) and load(str(path)) is not None:
            return str(path)
        if _build(cc, path) and load(str(path)) is not None:
            return str(path)
    return None
