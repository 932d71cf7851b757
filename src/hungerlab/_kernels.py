"""Hot loops for the greedy firing process.

There are three kernels: greedy_run fires the hungriest state, for a
number of steps or until a stop state fires; brent_cycle finds where and
how an orbit cycles; reinsert_loop fires with remove-and-reinsert steps.
Each has two implementations:

- ``c``: the bodies in ``_kernels.c``, compiled with the system ``cc`` the
  first time this module is imported and loaded through ctypes. The shared
  library is cached in this package's ``__pycache__`` under a name holding
  a hash of the source and flags, so it is rebuilt only when they change.
- ``numpy``: the plain numpy loops defined below. They are the reference
  the compiled code is tested against (``reference.greedy_run`` etc.), and
  the fallback when no compiler is available.

HUNGERLAB_BACKEND selects one at import: unset means ``c`` if it builds and
``numpy`` otherwise, ``c`` insists (ImportError carrying the compiler's
error if the build fails), ``numpy`` forces the reference loops.

Kernels take either int64 state (exact arithmetic on the engine's integer
keys of the hunger vector) or float64 state. The reference bodies also run
dtype=object arrays of Python ints, exact at any scale: the engine uses
them when the keys could overflow int64, which takes hunger of huge
magnitude or a chain whose own denominators overflow, never the start's
denominators alone. np.argmax returns the first maximal index, which is
exactly the tie-breaking rule (fire the smallest hungriest index); the C
code finds the same index with a strict '>'.
"""

import ctypes
import hashlib
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_choice = os.environ.get("HUNGERLAB_BACKEND", "").strip().lower()
if _choice not in ("", "c", "numpy"):
    raise ValueError(f"HUNGERLAB_BACKEND must be 'c' or 'numpy', got {_choice!r}")


# ---------------------------------------------------------------------------
# numpy reference bodies


def greedy_run(h, rows, steps, fired, v, stop):
    """Fire the hungriest state up to `steps` times.

    h is mutated in place; rows is the (scaled) hunger matrix H. fired and v
    collect the firing sequence and per-state counts. The run ends early
    after the first fire at a state whose bool `stop` entry is set. Returns
    the number of fires.
    """
    for t in range(steps):
        i = np.argmax(h)
        h += rows[i]
        fired[t] = i
        v[i] += 1
        if stop[i]:
            return t + 1
    return steps


def brent_cycle(h0, rows, cap):
    """Brent's cycle detection on the firing orbit of h0.

    Returns (entry_steps, period) and overwrites h0 with the cycle-entry
    vector, h0 advanced entry_steps steps. Returns (-1, -1) and leaves h0
    unchanged if either phase would pass `cap` iterations. O(1) memory;
    exact equality comparisons, so this is only meaningful for
    integer-scaled state.
    """
    n = h0.shape[0]
    power = 1
    lam = 1
    tortoise = h0.copy()
    hare = h0.copy()
    i = np.argmax(hare)
    hare += rows[i]
    while True:
        same = True
        for j in range(n):
            if tortoise[j] != hare[j]:
                same = False
                break
        if same:
            break
        if power == lam:
            tortoise[:] = hare
            power *= 2
            lam = 0
        i = np.argmax(hare)
        hare += rows[i]
        lam += 1
        if lam > cap:
            return -1, -1
    tortoise[:] = h0
    hare[:] = h0
    for _ in range(lam):
        i = np.argmax(hare)
        hare += rows[i]
    mu = 0
    while True:
        same = True
        for j in range(n):
            if tortoise[j] != hare[j]:
                same = False
                break
        if same:
            break
        i = np.argmax(tortoise)
        tortoise += rows[i]
        i = np.argmax(hare)
        hare += rows[i]
        mu += 1
        if mu > cap:
            return -1, -1
    h0[:] = tortoise
    return mu, lam


def reinsert_loop(h, rows, absorbing, one, schedule, steps, fired, v):
    """Combined fire / remove-and-reinsert walk for `steps` steps.

    A step either fires the hungriest state, or, when the previous fire
    landed on an absorbing state, removes the chip there (h[k] -= one) and
    reinserts it at the next schedule entry (h += P_s, done as rows[s] plus
    `one` at s) in a single operation. The very first step is the initial
    insertion. fired[t] is the fired index or -1 for insertion steps.

    Returns (insertions_used, min_hunger, max_hunger) where the extrema
    cover the initial state and every step.
    """
    n = h.shape[0]
    si = 0
    chip = -2  # -2 no chip yet, -1 in flight after insertion, >= 0 last fired
    lo = h[0]
    hi = h[0]
    for j in range(n):
        if h[j] < lo:
            lo = h[j]
        if h[j] > hi:
            hi = h[j]
    for t in range(steps):
        if chip == -2 or (chip >= 0 and absorbing[chip]):
            if chip >= 0:
                h[chip] -= one
            s = schedule[si]
            si += 1
            h += rows[s]
            h[s] += one
            fired[t] = -1
            chip = -1
        else:
            i = np.argmax(h)
            h += rows[i]
            fired[t] = i
            v[i] += 1
            chip = i
        for j in range(n):
            if h[j] < lo:
                lo = h[j]
            if h[j] > hi:
                hi = h[j]
    return si, lo, hi


reference = SimpleNamespace(
    greedy_run=greedy_run,
    brent_cycle=brent_cycle,
    reinsert_loop=reinsert_loop,
)


# ---------------------------------------------------------------------------
# compiled bodies

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv")


def _build() -> Path:
    """Compile SOURCE into __pycache__ unless this source is built already.

    Returns the shared library's path. The compiler writes to a file named
    after this process and os.replace moves it into place, so concurrent
    imports never load a half-written library.

    Raises:
        ImportError: cc is missing, fails, or the cache is not writable.
    """
    cache = SOURCE.parent / "__pycache__"
    tmp = None
    try:
        code = SOURCE.read_bytes()
        digest = hashlib.sha256(code + " ".join(CFLAGS).encode()).hexdigest()[:16]
        lib = cache / f"_kernels-{digest}.so"
        if lib.exists():
            return lib
        import subprocess  # only a cache miss needs it; keeps imports fast

        cache.mkdir(exist_ok=True)
        tmp = cache / f"{lib.name}.{os.getpid()}.tmp"
        proc = subprocess.run(
            ["cc", *CFLAGS, "-o", str(tmp), str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ImportError(f"cc could not build {SOURCE.name}:\n{proc.stderr}")
        os.replace(tmp, lib)
    except OSError as exc:
        raise ImportError(f"cannot build {SOURCE.name}: {exc}") from exc
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
    return lib


def _load(path: Path) -> dict:
    """Bind the library's functions: dtype -> namespace of kernels."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"cannot load {path}: {exc}") from exc
    P, I, D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    table = {}
    for dtype, suffix, T in ((np.int64, "i64", I), (np.float64, "f64", D)):
        signatures = {
            "greedy_run": ([P, P, I, I, P, P, P], I),
            "brent_cycle": ([P, P, I, I, P, ctypes.POINTER(I)], I),
            "reinsert_loop": ([P, P, I, P, T, P, I, P, P, ctypes.POINTER(T)], I),
        }
        kernels = SimpleNamespace(extrema=T * 2)
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, f"{name}_{suffix}")
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(kernels, name, fn)
        table[np.dtype(dtype)] = kernels
    return table


_compiled = None
if _choice != "numpy":
    try:
        _compiled = _load(_build())
    except ImportError:
        if _choice == "c":
            raise

BACKEND = "numpy" if _compiled is None else "c"


def active_backend() -> str:
    """Name of the backend the kernels run on ("c" or "numpy")."""
    return BACKEND


# The compiled kernels keep the reference signatures. Each checks dtypes,
# shapes and contiguity before handing raw pointers to C, inline: a helper
# function here would itself be counted as a kernel call by tracers that
# wrap this module's functions.

_INT64 = np.dtype(np.int64)
_BOOL = np.dtype(np.bool_)
_MISFIT = "arrays do not match the kernel's dtypes, shapes or layout"

if _compiled is not None:

    def greedy_run(h, rows, steps, fired, v, stop):
        """Compiled reference.greedy_run."""
        n = h.shape[0]
        if not (
            h.ndim == 1 and h.dtype in _compiled
            and rows.dtype == h.dtype and rows.shape == (n, n)
            and fired.dtype == v.dtype == _INT64 and v.shape == (n,)
            and stop.dtype == _BOOL and stop.shape == (n,)
            and fired.shape[0] >= steps >= 0 and h.flags.c_contiguous
            and rows.flags.c_contiguous and fired.flags.c_contiguous
            and v.flags.c_contiguous and stop.flags.c_contiguous
        ):
            raise ValueError("greedy_run: " + _MISFIT)
        return _compiled[h.dtype].greedy_run(
            h.ctypes.data, rows.ctypes.data, n, steps, fired.ctypes.data,
            v.ctypes.data, stop.ctypes.data,
        )

    def brent_cycle(h0, rows, cap):
        """Compiled reference.brent_cycle."""
        n = h0.shape[0]
        if not (
            h0.ndim == 1 and h0.dtype in _compiled
            and rows.dtype == h0.dtype and rows.shape == (n, n)
            and h0.flags.c_contiguous and rows.flags.c_contiguous
        ):
            raise ValueError("brent_cycle: " + _MISFIT)
        scratch = np.empty(2 * n, dtype=h0.dtype)  # tortoise and hare
        lam = ctypes.c_int64()
        mu = _compiled[h0.dtype].brent_cycle(
            h0.ctypes.data, rows.ctypes.data, n, cap, scratch.ctypes.data,
            ctypes.byref(lam),
        )
        return mu, lam.value

    def reinsert_loop(h, rows, absorbing, one, schedule, steps, fired, v):
        """Compiled reference.reinsert_loop."""
        n = h.shape[0]
        if not (
            h.ndim == 1 and h.dtype in _compiled
            and rows.dtype == h.dtype and rows.shape == (n, n)
            and absorbing.dtype == _BOOL and absorbing.shape == (n,)
            and schedule.dtype == fired.dtype == v.dtype == _INT64
            and v.shape == (n,) and fired.shape[0] >= steps >= 0
            and schedule.shape[0] >= steps
            and (steps == 0 or 0 <= schedule.min() <= schedule.max() < n)
            and h.flags.c_contiguous and rows.flags.c_contiguous
            and absorbing.flags.c_contiguous and schedule.flags.c_contiguous
            and fired.flags.c_contiguous and v.flags.c_contiguous
        ):
            raise ValueError("reinsert_loop: " + _MISFIT)
        kernels = _compiled[h.dtype]
        extrema = kernels.extrema()
        si = kernels.reinsert_loop(
            h.ctypes.data, rows.ctypes.data, n, absorbing.ctypes.data, one,
            schedule.ctypes.data, steps, fired.ctypes.data, v.ctypes.data, extrema,
        )
        return si, extrema[0], extrema[1]
