"""The package's compiled library: _sweep.c, built on first use and cached.

One library serves the solver (a whole solve, and the level builders) and
graph (the upper triangle of a sparse product, for walk and Jaccard pairs).
_rows, the one builder of symmetric CSR rows from sorted pair ids, makes
every Graph's rows (its queries' too) and every other sparse support's;
_smooth_at and _same_label read sorted pair ids for geometry's inner
products and a partition's alignment. _compiled() loads the
library once per process and returns its ctypes.CDLL; callers name its
functions as _sweep.c does. The library is a requirement: where it
cannot be built or loaded (no C compiler, say), each call of _compiled()
raises OSError with the reason, and nothing runs the jobs in its place. The
cache lives under the standard XDG_CACHE_HOME; there is no other setting.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

# _sweep.c is built with these flags (-ffp-contract=off keeps every product
# and sum rounded on its own, as numpy rounds them).
_SOURCE = Path(__file__).with_name("_sweep.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# _sweep.c's pairsphere_work: words in, the address of that many int64 out,
# or None; a Python function of this type must catch its own errors.
_WORK = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_int64)
# The parameters of _sweep.c's functions, as it lists them. A function left
# out would still resolve on the CDLL, untyped, and ctypes would pass its
# 64-bit pointers as C ints. Keep each under 20 parameters: with 20, each call
# left a 200-byte block that only a gc pass freed (tracemalloc), which raised
# grid-desk's peak RSS by about 0.4 MB.
_KERNEL_ARGS = {
    "pairsphere_sweep": (
        (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 6 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
        + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2 + (ctypes.c_double,) + (ctypes.c_void_p,) * 2
    ),
    "pairsphere_level": (
        (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 7 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
        + (ctypes.c_double,) + (ctypes.c_void_p,) * 4
    ),
    "pairsphere_coarsen": (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 10 + (_WORK, ctypes.c_double),
    "pairsphere_solve": (
        (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 7 + (ctypes.c_int64,) + (ctypes.c_void_p,) * 2
        + (ctypes.c_double,) + (ctypes.c_void_p,) * 4 + (_WORK,)
    ),
    "pairsphere_rows": (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 4,
    "pairsphere_smooth": (ctypes.c_int64,) * 2 + (ctypes.c_void_p, ctypes.c_int64) + (ctypes.c_void_p,) * 2
    + (ctypes.c_double, ctypes.c_void_p),
    "pairsphere_same_label": (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 3,
    "pairsphere_rules": (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 2,
    "pairsphere_aggregate": (ctypes.c_int64,) + ((ctypes.c_void_p,) * 4 + (ctypes.c_int64,)) * 2,
    "pairsphere_upper_count": (ctypes.c_int64,) + (ctypes.c_void_p,) * 6,
    "pairsphere_upper_fill": (ctypes.c_int64,) + (ctypes.c_void_p,) * 7 + (ctypes.c_double,) + (ctypes.c_void_p,) * 3,
}
_loaded = None  # (the CDLL or None, why not), set by _compiled on first use


def _kernel_path() -> Path:
    """Where the library is cached: $XDG_CACHE_HOME/pairsphere (default
    ~/.cache/pairsphere), under a name carrying the sha256 of the source, the
    flags and the platform."""
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_CFLAGS).encode() + b"\0" + sysconfig.get_platform().encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "pairsphere"
    return cache / f"sweep-{key.hexdigest()[:32]}.so"


def _compile(lib: Path) -> str:
    """Build _sweep.c into lib; returns "" or why not. The library gets the
    sha256 of its bytes appended (the loader ignores trailing bytes), and it
    is written to a temp file that os.replace moves into place, so processes
    compiling at once each leave a whole library."""
    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler (cc) on PATH"
    try:
        lib.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=lib.parent)
    except OSError as exc:
        return f"cache not writable: {exc}"
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)], capture_output=True, text=True, errors="replace", timeout=120
        )
        if proc.returncode != 0:
            return (proc.stderr.strip().splitlines() or [f"{cc} exited with {proc.returncode}"])[0]
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as f:
            f.write(hashlib.sha256(body).digest())
        os.chmod(tmp, 0o700)
        os.replace(tmp, lib)
        return ""
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cannot compile: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel() -> tuple:
    """(the compiled library's CDLL, "") or (None, why it did not load).

    A process that finds the library loads it; otherwise it compiles it
    first. A library or cache directory that another user owns, or that group
    or others can write, is not loaded, nor is a library whose bytes do not
    end with their own sha256 (mapping a truncated library can kill the
    process with SIGBUS)."""
    try:
        lib = _kernel_path()
        if not lib.exists() and (reason := _compile(lib)):
            return None, reason
        for path in (lib.parent, lib):
            st = path.stat()
            if st.st_uid != os.getuid():
                return None, f"{path} belongs to another user"
            if st.st_mode & 0o022:
                return None, f"{path} is writable by group or others"
        data = lib.read_bytes()
        if data[-32:] != hashlib.sha256(data[:-32]).digest():
            return None, f"{lib} is damaged: its bytes do not end with their sha256"
        dll = ctypes.CDLL(str(lib))
        for name, argtypes in _KERNEL_ARGS.items():  # the CDLL keeps each function it looked up, typed
            fn = getattr(dll, name)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int64
    except (OSError, AttributeError, RuntimeError) as exc:  # RuntimeError: Path.home() without a home
        return None, f"cannot load the compiled library: {exc}"
    return dll, ""


def _compiled() -> ctypes.CDLL:
    """The compiled library: call its functions by their C names, as
    attributes (dll.pairsphere_level), which return the typed ones. Raises
    OSError naming the reason where it did not load; the outcome is kept, so
    a failed build is not retried in the same process."""
    global _loaded
    if _loaded is None:
        _loaded = _load_kernel()
    dll, reason = _loaded
    if dll is None:
        raise OSError(f"the compiled library did not load: {reason}")
    return dll


def _address(a) -> int:
    """The address of a C-contiguous array or writable buffer: for a
    writable, non-empty one at about a third of the cost of
    ndarray.ctypes.data."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only, or empty
        return a.ctypes.data


def _rows(n: int, ids) -> tuple:
    """(indptr, nbr, pos): the CSR rows of the symmetric n x n pattern with
    entries at (i, j) and (j, i) for each pair id, columns ascending in every
    row, and each entry's pair index into ids, by a counting sort in the
    compiled library. The ids must ascend strictly in [0, n(n - 1)/2); a
    list out of that order raises ValueError naming the pair."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("pair ids must be one-dimensional")
    indptr = np.empty(n + 1, dtype=np.int64)
    nbr, pos = np.empty(2 * ids.size, dtype=np.int64), np.empty(2 * ids.size, dtype=np.int64)
    code = _compiled().pairsphere_rows(n, ids.size, *map(_address, (ids, indptr, nbr, pos)))
    if code < 0:
        t = -1 - code
        raise ValueError(f"pair {t} (id {ids[t]}) breaks the order: ids must ascend strictly in [0, {n * (n - 1) // 2})")
    return indptr, nbr, pos


def _smooth_at(n: int, ids: np.ndarray, coefs: np.ndarray, factors: np.ndarray, constant: float) -> np.ndarray:
    """constant + sum_k coefs[k] * factors[k, i] * factors[k, j] at each pair
    (i, j) of the sorted, in-range int64 ids (a PairVector's), summed in term
    order with every product rounded, the bits of numpy's
    `out += coef * factor[ii] * factor[jj]`; factors is K x n."""
    coefs, factors = (np.ascontiguousarray(a, dtype=np.float64) for a in (coefs, factors))
    out = np.empty(ids.size)
    args = (_address(ids), coefs.size, _address(coefs), _address(factors), constant, _address(out))
    _compiled().pairsphere_smooth(n, ids.size, *args)
    return out


def _same_label(n: int, ids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Whether both ends of each pair of the sorted, in-range int64 ids (a
    PairVector's) carry one of the n labels."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    same = np.empty(ids.size, dtype=bool)
    _compiled().pairsphere_same_label(n, ids.size, *map(_address, (ids, labels, same)))
    return same
