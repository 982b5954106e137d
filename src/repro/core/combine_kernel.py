"""Build, cache and load the compiled interval-DP kernel (``combine.c``).

The kernel is plain C99 loaded through :mod:`ctypes`, so it needs no
Python headers and no new dependency: only a C compiler, found the way
setuptools finds one (``$CC``, else ``cc``).  It is compiled once per
``(source hash, compiler, platform)`` and published atomically (temp
file + :func:`os.replace`) into a cache directory — the package's own
``__pycache__``, or the user cache directory when that is not writable —
so every later process only loads it (``dlopen``).  Concurrent first builds
each publish a complete library; a cached library that no longer loads
(truncated, say) is rebuilt.  A compiler that runs longer than
:data:`COMPILE_TIMEOUT_S` is killed and counts as no compiler.

:func:`load` returns ``None`` when there is no working compiler and no
cached build: the solvers then run the scalar v2 evaluator, which gives
the same answers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from typing import List, Optional

__all__ = ["DPRun", "COMPILE_TIMEOUT_S", "load", "compiler_id"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "combine.c")
#: Never -ffast-math: the kernel's answers must match the scalar loop bit
#: for bit, so float operations may be neither contracted nor reordered.
_FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")

#: Seconds a compiler command may run before it is killed and the solvers
#: fall back to the scalar evaluator (a build takes about half a second).
COMPILE_TIMEOUT_S = 60.0

_UNSET = object()
#: The loaded library, ``None`` when unavailable; resolved once per process.
_loaded = _UNSET
_load_lock = threading.Lock()


class DPRun(ctypes.Structure):
    """Mirror of ``dp_run`` in ``combine.c`` (same fields, same order).

    The caller fills the inputs (``c_void_p`` addresses of its buffers);
    ``dp_solve`` fills the node graph and the tables, which the kernel owns
    until ``dp_release`` frees them and resets the pointers to NULL.
    """

    _fields_ = [
        ("P", ctypes.c_int64),
        ("L", ctypes.c_int64),
        ("lb2_lo", ctypes.c_int64),
        ("lb2_hi", ctypes.c_int64),
        ("left_b1", ctypes.c_void_p),
        ("right_b1_hi", ctypes.c_void_p),
        ("valid", ctypes.c_void_p),
        ("right_end_vi", ctypes.c_void_p),
        ("grid_of_k", ctypes.c_void_p),
        ("charges", ctypes.c_void_p),
        ("charge_of", ctypes.c_void_p),
        ("single", ctypes.c_void_p),
        ("empty", ctypes.c_void_p),
        ("C", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("hall_min_jobs", ctypes.c_int64),
        ("empty_row", ctypes.c_void_p),
        ("release_col", ctypes.c_void_p),
        ("deadline_col", ctypes.c_void_p),
        ("num_nodes", ctypes.c_int64),
        ("kind", ctypes.POINTER(ctypes.c_ubyte)),
        ("i1", ctypes.POINTER(ctypes.c_int64)),
        ("i2", ctypes.POINTER(ctypes.c_int64)),
        ("k", ctypes.POINTER(ctypes.c_int64)),
        ("jmax", ctypes.POINTER(ctypes.c_int64)),
        ("split_lo", ctypes.POINTER(ctypes.c_int64)),
        ("split_hi", ctypes.POINTER(ctypes.c_int64)),
        ("split_left", ctypes.POINTER(ctypes.c_int64)),
        ("split_right", ctypes.POINTER(ctypes.c_int64)),
        ("right_end", ctypes.POINTER(ctypes.c_int64)),
        ("mask_words", ctypes.c_int64),
        ("mask", ctypes.POINTER(ctypes.c_uint64)),
        ("plane", ctypes.POINTER(ctypes.c_int64)),
        ("cost", ctypes.POINTER(ctypes.c_double)),
        ("win", ctypes.POINTER(ctypes.c_int64)),
        ("states_computed", ctypes.c_int64),
        ("memo_hits", ctypes.c_int64),
        ("hall_pruned", ctypes.c_int64),
        ("dominance_dropped", ctypes.c_int64),
        ("plans_built", ctypes.c_int64),
        ("peak_depth", ctypes.c_int64),
    ]


def _compiler() -> Optional[List[str]]:
    """The compiler command line (``$CC`` or ``cc``), or ``None`` if absent."""
    argv = shlex.split(os.environ.get("CC") or "cc")
    if not argv:
        return None
    path = shutil.which(argv[0])
    if path is None:
        return None
    return [os.path.realpath(path)] + argv[1:]


def _library_name(compiler: List[str]) -> str:
    """Cache file name keyed on source, compiler binary and platform."""
    digest = hashlib.sha256()
    with open(_SOURCE, "rb") as handle:
        digest.update(handle.read())
    stat = os.stat(compiler[0])
    for part in (
        *compiler, str(stat.st_size), str(stat.st_mtime_ns), *_FLAGS,
        sys.platform, platform.machine(),
    ):
        digest.update(part.encode("utf-8", "surrogateescape") + b"\0")
    return f"combine-{digest.hexdigest()[:20]}.so"


def _cache_dirs() -> List[str]:
    """Where built libraries live, in order of preference."""
    user = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return [
        os.path.join(os.path.dirname(_SOURCE), "__pycache__"),
        os.path.join(user, "repro-sched"),
    ]


def _open(path: str) -> Optional[ctypes.CDLL]:
    try:
        lib = ctypes.CDLL(path)
        solve, release = lib.dp_solve, lib.dp_release
    except (OSError, AttributeError):
        return None
    solve.argtypes = release.argtypes = [ctypes.POINTER(DPRun)]
    solve.restype = ctypes.c_int
    release.restype = None
    return lib


def _run(argv: List[str], capture: bool = False) -> Optional[subprocess.CompletedProcess]:
    """Run a compiler command; ``None`` when it cannot start or overruns.

    An overrun kills the command's whole process group, so a wrapper that
    hangs (waiting on a remote cache, say) takes its children with it.
    """
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
            text=capture, start_new_session=True,
        )
    except OSError:
        return None
    try:
        stdout, _ = proc.communicate(timeout=COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.communicate()
        return None
    return subprocess.CompletedProcess(argv, proc.returncode, stdout)


def _compile(compiler: List[str], tmp: str, path: str) -> Optional[ctypes.CDLL]:
    """Build into ``tmp`` and publish it atomically as ``path``."""
    try:
        done = _run([*compiler, *_FLAGS, "-o", tmp, _SOURCE])
        if done is None or done.returncode != 0:
            return None
        os.replace(tmp, path)
    except OSError:
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _open(path)


def _build_and_load() -> Optional[ctypes.CDLL]:
    compiler = _compiler()
    if compiler is None:
        return None
    try:
        name = _library_name(compiler)
    except OSError:
        return None
    directories = _cache_dirs()
    for directory in directories:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            lib = _open(path)
            if lib is not None:
                return lib
    # No loadable build: compile once, into the first writable directory.
    for directory in directories:
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".combine-", suffix=".so", dir=directory)
        except OSError:
            continue
        os.close(fd)
        return _compile(compiler, tmp, os.path.join(directory, name))
    return None


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, built on first use; ``None`` when unavailable."""
    global _loaded
    if _loaded is _UNSET:
        with _load_lock:
            if _loaded is _UNSET:
                _loaded = _build_and_load()
    return _loaded


def compiler_id() -> Optional[str]:
    """First line of the kernel compiler's ``--version``; ``None`` without a kernel."""
    compiler = _compiler()
    if load() is None or compiler is None:
        return None
    done = _run([compiler[0], "--version"], capture=True)
    if done is None:
        return os.path.basename(compiler[0])
    lines = done.stdout.strip().splitlines()
    return lines[0] if lines else os.path.basename(compiler[0])
