"""Hot loops for the greedy firing process, the rotor walk it is raced
against, and their CSV output.

Two kernels fire. greedy_run fires the hungriest state for a number of
steps, until a stop state fires or its orbit repeats without one; given a
schedule it runs the paper's remove-and-reinsert walk, and given an
extrema array it keeps the least and largest hunger seen. brent_cycle
finds where and how an orbit cycles and, given a buffer long enough,
writes the states fired in one period from the cycle entry. rotor_walk
walks the rotor-router over each state's runs of slots, and csv_rows
turns a block of CSV rows (traces, sweep profiles, rotor itineraries)
into text. Each has two implementations:

- ``c``: the bodies in ``_kernels.c``, compiled with the system ``cc`` the
  first time this module is imported and loaded through ctypes. The shared
  library is cached in this package's ``__pycache__`` under a name holding
  a hash of the source and flags, so it is rebuilt only when they change.
- ``numpy``: the Python bodies defined below. They are the reference the
  compiled code is tested against (``reference.greedy_run`` etc.), and the
  fallback when no compiler is available.

HUNGERLAB_BACKEND selects one at import: unset means ``c`` if it builds and
``numpy`` otherwise, ``c`` insists (ImportError carrying the compiler's
error if the build fails), ``numpy`` forces the reference loops.

Kernels take int64 state (exact arithmetic on the engine's integer keys
of the hunger vector), float64 state, or dtype=object arrays of Python
ints, exact at any scale, which the compiled kernels hand to their
reference body (as csv_rows does fields C cannot write): callers always
call _kernels.<name>. The engine uses Python ints only when the keys could
overflow int64: hunger of huge magnitude or a chain whose own
denominators overflow, never the start's denominators alone.

One input contract holds for both bodies of each kernel. The rows of H
come as SparseRows only, which refuse rows that are not n states' CSR
rows, each row's columns strictly ascending, when they are made; the
compiled bodies check the arrays' bounds again on every call. Other input
that the compiled body refuses (_kernels.c's failure codes: runs that are
not n states' rotors, a label index outside -1 .. k - 1, a denominator
<= 0) the reference body refuses with the same exception and message,
_FAILURE[code]. tests/test_kernels.py runs both bodies on such input and
on random valid input; the golden sha256 tables of tests/test_cli.py and
tests/test_hunger_engine.py pin the bytes that the test suite checks on
either backend.

A fire adds its row to the columns it touches only. A reference fire is
i = np.argmax(h), then h[cols] += vals over row i's entries; the compiled
kernels read i off a max tournament tree over blocks of 8 states (ties to
the lower index, as np.argmax's), O(8 + deg * log(n / 8)) a step, and find
a repeat of h by an orbit hash that the touched entries move (see
_kernels.c's header). A dense fire added +0.0 to every column, turning
-0.0 hunger into +0.0; each kernel makes that rewrite once, before its
first fire (h += 0 in the reference), so float runs stay bit-identical to
it. The reference takes greedy_run's extrema over every entry a step
touches; the compiled walk reads only the entries that can pass them.

csv_rows takes a row's fields as str (a constant), Labels (a label a row),
Ratios (k cells num/den a row, reduced by their gcd) and Deviations (an
estimate's exact distance from p/q, scaled). Both bodies first check a
block in _Arguments.block, which hands the C body a str as a one-label
Labels. The C body runs when Ratios are int64 or float64 (den None) and
Deviations fit 128 bits (m^2 max(|p|, q) < 2^126, m the largest magnitude
in their arrays); other floats, Python ints and wider Deviations take the
reference body on either backend. It prints unsigned magnitudes (INT64_MIN
as Python's str does), float64 cells with repr's bytes (Schubfach's
shortest digits, from _Arguments.schubfach_table), and writes a call's rows
through one buffer sized from them, a piece at a time, never past its end.

rotor_walk takes int64 arrays only, whatever the slot counts: a walk of N
steps leaves a state at most N times, so its caller cuts every count at
N + 1 and no count past 2^63 reaches it.
"""

import ctypes
import hashlib
import math
import os
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import numpy as np

_choice = os.environ.get("HUNGERLAB_BACKEND", "").strip().lower()
if _choice not in ("", "c", "numpy"):
    raise ValueError(f"HUNGERLAB_BACKEND must be 'c' or 'numpy', got {_choice!r}")


# ---------------------------------------------------------------------------
# sparse rows and the numpy reference bodies

_INT64 = np.dtype(np.int64)
_BOOL = np.dtype(np.bool_)


class _Pointer:
    """Where a contiguous array's data starts, for the compiled kernels.

    A class holding a static method rather than a module function, so that
    tracers wrapping this module's functions do not count it as a kernel
    call.
    """

    @staticmethod
    def of(a: np.ndarray) -> int:
        # The buffer protocol costs a third of ndarray.ctypes; it refuses
        # read-only and empty arrays, which take the slow way.
        try:
            return ctypes.addressof(ctypes.c_char.from_buffer(a))
        except (TypeError, ValueError):
            return a.ctypes.data


# Failure codes of _kernels.c. Each body raises _FAILURE[code]() for input
# that the compiled body refuses with that code.
_BAD_ROWS, _NO_MEMORY, _BAD_DEN, _BAD_LABEL, _NO_ROOM, _BAD_RUNS = range(-2, -8, -1)
_FAILURE = {
    _BAD_ROWS: partial(ValueError, "rows are not the CSR rows of n states"),
    _NO_MEMORY: partial(MemoryError, "no memory for the tournament tree"),
    _BAD_DEN: partial(ValueError, "csv_rows: a denominator is <= 0"),
    _BAD_LABEL: partial(ValueError, "csv_rows: a label index is out of range"),
    _NO_ROOM: partial(RuntimeError, "csv_rows: the row buffer is too small"),
    _BAD_RUNS: partial(ValueError, "rotor_walk: the runs are not the rotors of n states"),
}


class SparseRows:
    """The rows of H = P - I in compressed sparse row form.

    Row i holds values[indptr[i]:indptr[i + 1]] at the columns
    indices[indptr[i]:indptr[i + 1]], strictly ascending; the engine keeps
    the diagonal in every row. indptr and indices are int64, values has the
    hunger vector's dtype (int64 keys R*D*H, float64 P - I, or Python ints),
    all 1-D and contiguous. Making SparseRows checks that layout and the
    structure (rows_ok) and makes indptr and indices read-only, so no body
    of a kernel is handed rows that another would refuse or fire
    differently; times() gives the same rows scaled, without checking them
    again. `address` holds the arrays' data pointers for the compiled
    kernels, read once here rather than on every call (None where no
    compiled kernel takes the dtype). The kernels never change the rows,
    and the reference bodies' per-row table is built on first use and
    kept.
    """

    __slots__ = ("indptr", "indices", "values", "address", "_table")

    def __init__(self, indptr, indices, values):
        if not (
            indptr.dtype == indices.dtype == _INT64
            and indptr.ndim == indices.ndim == 1 and indptr.shape[0] >= 1
            and indices.shape == values.shape and indptr.flags.c_contiguous
            and indices.flags.c_contiguous and values.flags.c_contiguous
        ):
            raise ValueError("SparseRows: arrays do not match the CSR layout")
        if not self.rows_ok(indptr, indices):
            raise _FAILURE[_BAD_ROWS]()
        self._hold(indptr, indices, values)
        indptr.flags.writeable = indices.flags.writeable = False  # as checked

    def _hold(self, indptr, indices, values, address=None) -> "SparseRows":
        """Keep the arrays and read their addresses (indptr's and indices'
        from `address` when given); returns self."""
        self.indptr, self.indices, self.values, self._table = indptr, indices, values, None
        self.address = None
        if _compiled is not None and values.dtype in _compiled:
            head = address[:2] if address else tuple(map(_Pointer.of, (indptr, indices)))
            self.address = (*head, _Pointer.of(values))
        return self

    def times(self, factor, dtype) -> "SparseRows":
        """These rows with values.astype(dtype) * factor. They share indptr
        and indices with self, which were checked, and made read-only, when
        self was made."""
        values = self.values.astype(dtype, copy=False) * factor
        return object.__new__(SparseRows)._hold(self.indptr, self.indices, values, self.address)

    @staticmethod
    def rows_ok(indptr, indices, ascending=True) -> bool:
        """The check of rows_ok in _kernels.c (at least one state, indptr
        running from 0 up to len(indices) without decreasing, every index
        one of the n states) and, with `ascending`, each row's indices
        strictly ascending. (A static method, so tracers do not count it as
        a kernel call.)"""
        n, sizes = indptr.shape[0] - 1, np.diff(indptr)
        if n < 1 or indptr[0] != 0 or indptr[-1] != indices.shape[0] or sizes.min() < 0:
            return False
        key = np.repeat(np.arange(0, n * n, n), sizes) + indices  # by row, then by index
        in_range = ((indices >= 0) & (indices < n)).all()
        return bool(in_range and (not ascending or (key[1:] > key[:-1]).all()))

    def table(self) -> list:
        """Per row: views of its columns and values, for the reference
        bodies (a method, so tracers do not count it as a kernel call)."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> list:
        indptr = self.indptr.tolist()
        return [
            (self.indices[a:b], self.values[a:b]) for a, b in zip(indptr, indptr[1:])
        ]


def greedy_run(h, rows, steps, fired, v, stop, one=0, schedule=(), extrema=None):
    """Fire the hungriest state up to `steps` times; given a schedule, run
    the lemma's walk, which takes an absorbed chip out and reinserts it.

    h is mutated in place; rows are the (scaled) hunger matrix H as
    SparseRows. fired and v collect the firing sequence and per-state
    counts. With an empty schedule the run ends after the first fire at a
    state whose bool `stop` entry is set, or, when some entry is set, at
    the first fire that leaves h equal to its copy, taken after the first
    power of two >= n fires and at every power of two (Brent): the orbit
    then never reaches a stop state. With a schedule of m >= 1 states the
    first step inserts the chip at schedule[0] (h += row s, plus `one` at
    s), and the step after each fire at a stop state k removes it (h[k] -=
    one) and inserts it at the next schedule state: insertion si goes to
    schedule[si % m]. An insertion step writes -1 in fired. Returns the
    number of steps taken.

    extrema, a length-2 array of h's dtype, if given receives the min and
    max hunger over the start and every step. Here they are taken over the
    entries each step touches; the compiled kernels read only those a step
    can move past them, which holds for the rows of H = P - I (the diagonal
    is their only negative entry).

    A run without stop states fires every step here. The compiled body of
    an int64 one stops firing once h repeats and copies the period it has
    fired to the end (see _kernels.c), which is exact: the lemma keeps the
    keys in a finite set, so the orbit is periodic. A float one fires every
    step there too: whether its rounded orbit closes varies by chain.
    """
    track = extrema is not None
    if track:
        start = h.tolist()  # min and max keep the first of -0.0 and 0.0
        lo, hi = min(start), max(start)
    si, m, seq = 0, len(schedule), []
    ends, copy, next_copy = not m and stop.any(), None, 1 << (h.shape[0] - 1).bit_length()
    if steps > 0:
        table = rows.table()
        stop = stop.tolist()
        h += 0  # -0.0 -> +0.0, as a dense fire did
    while len(seq) < steps:
        if m:
            i = schedule[si % m]
            si += 1
            touched = [i]
            if seq:
                touched.append(seq[-1])
                h[seq[-1]] -= one
            cols, vals = table[i]
            h[cols] += vals
            h[i] += one
            seq.append(-1)
            if track:  # read after both: the removal and the row can move one entry
                seen = h[cols].tolist() + h[touched].tolist()
                lo, hi = min(lo, *seen), max(hi, *seen)
        while len(seq) < steps:
            i = np.argmax(h)
            cols, vals = table[i]
            h[cols] += vals
            seq.append(i)
            if track:
                seen = h[cols].tolist()
                lo, hi = min(lo, *seen), max(hi, *seen)
            if stop[i]:
                break
            if ends and copy is not None and h[i] == copy[i] and (h == copy).all():
                break  # the orbit never fires a stop state
            if ends and len(seq) == next_copy:
                copy, next_copy = h.copy(), 2 * next_copy
        if not m:
            break
    if track:
        extrema[0], extrema[1] = lo, hi
    fired[: len(seq)] = seq
    seq = np.array(seq, dtype=np.int64)
    v += np.bincount(seq[seq >= 0], minlength=v.shape[0])
    return len(seq)


def brent_cycle(h0, rows, cap, order=None):
    """Brent's cycle detection on the firing orbit of h0.

    Returns (entry_steps, period) and overwrites h0 with the cycle-entry
    vector, h0 advanced entry_steps steps (h0 itself when that is 0).
    Returns (-1, -1) and leaves h0 unchanged if either phase would pass
    `cap` iterations. Keeps three copies of the state, O(n + nnz) memory in
    all. Exact equality comparisons: float state gives the cycle of the
    rounded map, not of the exact chain. The compiled body compares states
    on a match of their orbit hashes only, as greedy_run's walk does.

    order, an int64 array, if given and at least period entries long,
    receives the states fired in one period from the cycle entry (the
    tortoise fires them once more); a shorter one is left untouched.
    """
    table = rows.table()

    def fire(h):
        i = np.argmax(h)
        cols, vals = table[i]
        h[cols] += vals
        return i

    power = 1
    lam = 1
    tortoise = h0.copy()
    hare = h0 + 0  # -0.0 -> +0.0, as a dense fire did
    fire(hare)
    while (tortoise != hare).any():
        if power == lam:
            tortoise[:] = hare
            power *= 2
            lam = 0
        fire(hare)
        lam += 1
        if lam > cap:
            return -1, -1
    tortoise = h0 + 0
    hare = h0 + 0
    for _ in range(lam):
        fire(hare)
    mu = 0
    while (tortoise != hare).any():
        fire(tortoise)
        fire(hare)
        mu += 1
        if mu > cap:
            return -1, -1
    if order is not None and lam <= len(order):
        order[:lam] = [fire(tortoise) for _ in range(lam)]
    if mu:
        h0[:] = tortoise
    return mu, lam


def rotor_walk(itinerary, run_ptr, targets, counts, at, left):
    """Walk the rotor-router len(itinerary) - 1 steps from itinerary[0],
    writing the states it arrives at into itinerary[1:].

    The rotor of state x cycles its runs, CSR like the rows of H: run k in
    run_ptr[x] .. run_ptr[x + 1] is counts[k] >= 1 consecutive slots
    pointing at targets[k]. It points into run at[x], with left[x] of the
    run's slots left, the one it points at included. A departure from x
    goes to targets[at[x]] and uses up one slot; at the end of the last run
    the rotor wraps to the first. at and left are mutated in place to the
    final rotors. Every array is int64. Returns the steps walked.
    """
    if not (SparseRows.rows_ok(run_ptr, targets, ascending=False)
            and 0 <= itinerary[0] < at.shape[0] and (counts >= 1).all()
            and ((run_ptr[:-1] <= at) & (at < run_ptr[1:]) & (left >= 1)).all()
            and (left <= counts[at]).all()):
        raise _FAILURE[_BAD_RUNS]()
    ptr, targets, counts = run_ptr.tolist(), targets.tolist(), counts.tolist()
    at_x, left_x = at.tolist(), left.tolist()
    x = int(itinerary[0])
    path = []
    for _ in range(itinerary.shape[0] - 1):
        k = at_x[x]
        left_x[x] -= 1
        if left_x[x] == 0:
            at_x[x] = k + 1 if k + 1 < ptr[x + 1] else ptr[x]
            left_x[x] = counts[at_x[x]]
        x = targets[k]
        path.append(x)
    itinerary[1:] = path
    at[:], left[:] = at_x, left_x
    return len(path)


class Labels(NamedTuple):
    """A CSV field of one label a row: table[index[r]], the labels already
    quoted as csv writes them (a list, which take keeps whole); index -1
    writes an empty field."""

    table: Sequence[str]
    index: np.ndarray

    def take(self, rows):  # the same field over some of its rows
        return type(self)(*(x[rows] if isinstance(x, np.ndarray) else x for x in self))


class Ratios(NamedTuple):
    """A CSV field of k cells a row, num[r, c] / den joined by sep: num is
    (rows, k), or (rows,) for k = 1; den is one positive integer for every
    row, an array of one a row, or None for float cells, written by repr.
    An integer column is a Ratios over den 1. The compiled csv_rows copies
    a num that does not lie in rows (a transposed view) into rows."""

    num: np.ndarray
    den: object
    sep: str = ","
    take = Labels.take


class Deviations(NamedTuple):
    """A CSV field of one cell a row, scale[r] |num[r] q - p den[r]| / (den[r] q):
    the distance of num[r] / den[r] from p / q, scaled, written as a Ratios
    cell. num, den and scale (None for 1) are int64 arrays; den, q > 0."""

    num: np.ndarray
    den: np.ndarray
    p: int
    q: int
    scale: Optional[np.ndarray] = None
    take = Labels.take

    def ratios(self) -> Ratios:
        """The same cells as a Ratios of Python ints."""
        num, den, q = self.num.astype(object), self.den.astype(object), int(self.q)
        dev = np.abs(num * q - int(self.p) * den)
        return Ratios(dev if self.scale is None else dev * self.scale, den * q)


def csv_rows(f, fields):
    """Write CSV rows to the text file f: in each row its fields, joined by
    "," and ended by "\n".

    A field is a str (the same text in every row), Labels, Ratios or
    Deviations, and the rows are as many as every array of the others has. A
    Ratios cell num/den is reduced by its gcd and written as "a", or "a/b"
    for b > 1, as the reduced Fraction prints.

    Raises:
        ValueError: see _Arguments.block.
    """
    columns = []
    for field in _Arguments.block(fields)[1]:
        if isinstance(field, Labels):
            padded = ["", *field.table]
            columns.append([padded[i] for i in (field.index + 1).tolist()])
        else:
            num, den, sep = field.ratios() if isinstance(field, Deviations) else field
            if isinstance(den, int) and den >= 2**63:
                num = num.astype(object)  # np.gcd takes no such int with int64
            cells = []
            for col in (num if num.ndim == 2 else num[:, None]).T:
                if den is None:
                    cells.append(map(repr, col.tolist()))
                elif np.ndim(den) == 0 and den == 1:
                    cells.append(map(str, col.tolist()))
                else:
                    g = np.gcd(col, den)
                    cells.append([
                        str(a) if b == 1 else f"{a}/{b}"
                        for a, b in zip((col // g).tolist(), (den // g).tolist())
                    ])
            columns.append(map(sep.join, zip(*cells)) if len(cells) > 1 else cells[0])
    f.writelines(",".join(row) + "\n" for row in zip(*columns))


reference = SimpleNamespace(
    greedy_run=greedy_run,
    brent_cycle=brent_cycle,
    rotor_walk=rotor_walk,
    csv_rows=csv_rows,
)


# ---------------------------------------------------------------------------
# compiled bodies

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv")


def _library() -> Path:
    """The cache path of SOURCE built with CFLAGS: __pycache__/_kernels-<the
    first 16 hex digits of the sha256 of the source and flags>.so."""
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode())
    return SOURCE.parent / "__pycache__" / f"_kernels-{digest.hexdigest()[:16]}.so"


def _build() -> Path:
    """Compile SOURCE to _library() unless this source is built already.

    Returns the shared library's path. The compiler writes to a file named
    after this process and os.replace moves it into place, so concurrent
    imports never load a half-written library.

    Raises:
        ImportError: cc is missing, fails, or the cache is not writable.
    """
    tmp = None
    try:
        lib = _library()
        if lib.exists():
            return lib
        import subprocess  # only a cache miss needs it; keeps imports fast

        lib.parent.mkdir(exist_ok=True)
        tmp = lib.parent / f"{lib.name}.{os.getpid()}.tmp"
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


class _Field(ctypes.Structure):
    """A field of csv_rows in _kernels.c."""

    _LABELS, _RATIOS, _FLOATS, _DEVIATIONS = range(4)
    _fields_ = [
        ("kind", ctypes.c_int64), ("k", ctypes.c_int64),
        ("num", ctypes.c_void_p), ("den", ctypes.c_void_p),
        ("scalar", ctypes.c_int64), ("text", ctypes.c_char_p),
        ("ends", ctypes.c_void_p), ("sep", ctypes.c_int64),
        ("p", ctypes.c_uint64 * 2), ("q", ctypes.c_uint64 * 2), ("scale", ctypes.c_void_p),
        ("g", ctypes.c_void_p),
    ]


# Bytes the compiled csv_rows formats per write: well under glibc's default
# mmap threshold (128 KiB), so the buffer and its text come from the heap
# and are reused. Freeing a larger, mapped block raises that threshold, and
# the heap then keeps more memory resident than the text ever needed.
_PIECE = 1 << 16


def _load(path: Path) -> dict:
    """Bind the library's functions: dtype -> namespace of kernels."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"cannot load {path}: {exc}") from exc
    P, I, D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    table = {}
    for dtype, suffix, T in ((np.int64, "i64", I), (np.float64, "f64", D)):
        # h, then the rows (indptr, indices, values, n, nnz), then the rest
        signatures = {
            "greedy_run": ([P, P, P, P, I, I, I, P, P, P, T, P, I, P], I),
            "brent_cycle": ([P, P, P, P, I, I, I, ctypes.POINTER(I), P, I], I),
        }
        kernels = SimpleNamespace()
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, f"{name}_{suffix}")
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(kernels, name, fn)
        table[np.dtype(dtype)] = kernels
    lib.rotor_walk.argtypes = [P, I, P, P, P, I, I, P, P]
    lib.rotor_walk.restype = I
    table[_INT64].rotor_walk = lib.rotor_walk
    lib.csv_rows.argtypes = [ctypes.POINTER(_Field), I, ctypes.POINTER(I), I, P, I]
    lib.csv_rows.restype = I
    table[_INT64].csv_rows = lib.csv_rows
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


# The compiled kernels keep the reference signatures. Each hands object
# state to its reference body, and otherwise checks dtypes, shapes and
# contiguity with _Arguments before handing raw pointers to C, which checks
# the rows' or runs' structure and returns a _FAILURE code when it cannot run.


class _Arguments:
    """Argument checks: the compiled kernels', and csv_rows' row count for
    both bodies. Static methods, as _Pointer's, so that tracers wrapping
    this module's functions do not count them as kernel calls.
    """

    @staticmethod
    def rows(kernel, h, rows, steps=0, stop=None, fired=None, v=None,
             schedule=(), extrema=None, order=None):
        """Check that rows (SparseRows of h's dtype) and the other arrays
        fit the compiled `kernel`: brent_cycle passes h, the rows and its
        order buffer (1-D int64, writable), greedy_run adds steps, its stop
        mask, fired, v, its schedule, whose m >= 1 entries must be states,
        and extrema, (2,) of h's dtype.

        Raises:
            ValueError: an array has the wrong dtype, shape or layout.
        """
        n = h.shape[0]
        if not (
            h.ndim == 1 and h.dtype in _compiled and h.flags.c_contiguous
            and rows.values.dtype == h.dtype and rows.indptr.shape == (n + 1,)
            and (
                stop is None
                or stop.dtype == _BOOL and stop.shape == (n,)
                and fired.dtype == v.dtype == _INT64 and v.shape == (n,)
                and fired.shape[0] >= steps >= 0 and stop.flags.c_contiguous
                and fired.flags.c_contiguous and v.flags.c_contiguous
            )
            and (
                len(schedule) == 0
                or isinstance(schedule, np.ndarray) and schedule.dtype == _INT64
                and schedule.ndim == 1 and schedule.flags.c_contiguous
                and 0 <= schedule.min() <= schedule.max() < n
            )
            and (
                extrema is None
                or isinstance(extrema, np.ndarray) and extrema.dtype == h.dtype
                and extrema.shape == (2,) and extrema.flags.c_contiguous
            )
            and (
                order is None
                or isinstance(order, np.ndarray) and order.dtype == _INT64
                and order.ndim == 1 and order.flags.c_contiguous
                and order.flags.writeable
            )
        ):
            raise ValueError(
                f"{kernel}: arrays do not match the kernel's dtypes, shapes or layout"
            )

    @staticmethod
    def runs(itinerary, run_ptr, targets, counts, at, left) -> None:
        """Check that rotor_walk's arrays fit the compiled kernel: all int64,
        1-D and contiguous, at least the start in itinerary, n + 1 entries
        in run_ptr, a count per target, and at and left writable, one entry
        a state.

        Raises:
            ValueError: an array has the wrong dtype, shape or layout.
        """
        arrays = (itinerary, run_ptr, targets, counts, at, left)
        if not (
            all(a.dtype == _INT64 and a.ndim == 1 and a.flags.c_contiguous for a in arrays)
            and itinerary.shape[0] >= 1 and targets.shape == counts.shape
            and at.shape == left.shape == (run_ptr.shape[0] - 1,)
            and itinerary.flags.writeable and at.flags.writeable and left.flags.writeable
        ):
            raise ValueError(
                "rotor_walk: arrays do not match the kernel's dtypes, shapes or layout"
            )

    @staticmethod
    def block(fields):
        """(rows, fields) of a csv_rows block, checked before either body
        writes a byte. rows is the length of every array of its fields; a str
        comes back as a one-label Labels, a numpy integer den, p or q as an int,
        and an unsigned den array as int64, or as Python ints if one passes it.

        Raises:
            ValueError: no field holds an array, two lengths differ, a label
                index is not an integer in -1 .. k - 1, or a den or q is <= 0.
        """
        lengths, checked = set(), []
        for field in fields:
            if isinstance(field, Labels):
                index, k = field.index, len(field.table)
                if not (isinstance(index, np.ndarray) and index.dtype.kind in "iu"
                        and index.ndim == 1 and ((index >= -1) & (index < k)).all()):
                    raise _FAILURE[_BAD_LABEL]()
                lengths.add(len(index))
            elif not isinstance(field, str):
                field = field._replace(**{name: int(x) for name, x in field._asdict().items()
                                          if isinstance(x, np.integer)})
                if isinstance(field.den, np.ndarray) and field.den.dtype.kind == "u":
                    # np.gcd has no loop for int64 with uint64
                    fits = field.den.max(initial=0) < 2**63
                    field = field._replace(den=field.den.astype(_INT64 if fits else object))
                dens = (field.den, field.q) if isinstance(field, Deviations) else (field.den,)
                if any(d is not None and np.any(np.asarray(d) <= 0) for d in dens):
                    raise _FAILURE[_BAD_DEN]()
                lengths.update(len(a) for a in field if isinstance(a, np.ndarray))
            checked.append(field)
        if len(lengths) > 1:
            raise ValueError("csv_rows: the fields' lengths differ")
        if not lengths:
            raise ValueError("csv_rows: no field holds an array to count the rows")
        rows = lengths.pop()
        return rows, [Labels([f], np.zeros(rows, _INT64)) if isinstance(f, str) else f
                      for f in checked]

    @staticmethod
    @cache
    def schubfach_table() -> np.ndarray:
        """put_double's table in _kernels.c: for k = -324 .. 292 the words
        g >> 63 and g mod 2^63 of g = floor(10^-k 2^(125 - floor(-k log2 10)))
        + 1, exact in Python ints (2^125 <= g < 2^126)."""
        words = []
        for k in range(-324, 293):
            ten = 10 ** abs(k)  # floor(log2 10^-k) is bit_length - 1, or -bit_length
            g = (ten << 126 >> ten.bit_length() if k <= 0
                 else (1 << 125 + ten.bit_length()) // ten) + 1
            words += [g >> 63, g & (2**63 - 1)]
        return np.array(words, np.uint64)

    @staticmethod
    def fields(fields):
        """(the _Field array, the number of rows, the arrays it points into)
        for the compiled csv_rows, or None when a field needs Python ints or
        holds floats other than float64, after _Arguments.block has checked
        the block. Float64 cells (den None) take the FLOATS kind. Copies a
        Ratios num that does not lie in rows (a transposed view) into rows.

        Raises:
            ValueError: see _Arguments.block.
        """
        rows, fields = _Arguments.block(fields)
        spec = (_Field * len(fields))()
        arrays = []

        def pointer(a):
            arrays.append(a)
            return _Pointer.of(a)

        for field, c in zip(fields, spec):
            if isinstance(field, Labels):
                table = [label.encode() for label in field.table]
                c.kind, c.k, c.text = _Field._LABELS, len(table), b"".join(table)
                ends = np.cumsum([0, *map(len, table)], dtype=_INT64)
                index = np.ascontiguousarray(field.index, dtype=_INT64)
                c.ends, c.num = pointer(ends), pointer(index)
            elif isinstance(field, Deviations):
                num, den, p, q, scale = field
                ints = [a for a in (num, den, scale) if a is not None]
                m = max(max(-int(a.min(initial=0)), int(a.max(initial=0))) for a in ints)
                if not (all(a.dtype == _INT64 and a.ndim == 1 for a in ints)
                        and m * m * max(abs(p), q) < 2**126):
                    return None
                g = math.gcd(p, q)  # in lowest terms, as words that ctypes cuts to 64 bits
                c.kind, c.p, c.q = _Field._DEVIATIONS, *((x, x >> 64) for x in (p // g, q // g))
                c.num, c.den = (pointer(np.ascontiguousarray(a)) for a in (num, den))
                c.scale = scale if scale is None else pointer(np.ascontiguousarray(scale))
            else:
                num, den, sep = field
                c.kind = _Field._RATIOS
                if den is None and num.dtype == np.float64:
                    c.kind, c.g = _Field._FLOATS, pointer(_Arguments.schubfach_table())
                elif num.dtype != _INT64:
                    return None
                elif isinstance(den, np.ndarray):
                    if den.dtype != _INT64 or den.ndim != 1:
                        return None
                    c.den = pointer(np.ascontiguousarray(den))
                elif isinstance(den, int) and den < 2**63:
                    c.scalar = den
                else:
                    return None
                num = np.ascontiguousarray(num if num.ndim == 2 else num[:, None])
                c.k, c.sep, c.num = num.shape[1], ord(sep), pointer(num)
        return spec, rows, arrays


if _compiled is not None:

    def greedy_run(h, rows, steps, fired, v, stop, one=0, schedule=(), extrema=None):
        """Compiled reference.greedy_run: an int64 run without a schedule
        or stop states fires until h repeats, then copies its period to the
        end, which the lemma's bound on the keys makes exact."""
        if h.dtype == object:
            return reference.greedy_run(
                h, rows, steps, fired, v, stop, one, schedule, extrema
            )
        _Arguments.rows("greedy_run", h, rows, steps, stop, fired, v, schedule, extrema)
        m = len(schedule)
        k = _compiled[h.dtype].greedy_run(
            _Pointer.of(h), *rows.address, h.shape[0], rows.indices.shape[0],
            steps, _Pointer.of(fired), _Pointer.of(v), _Pointer.of(stop), one,
            _Pointer.of(schedule) if m else None, m,
            None if extrema is None else _Pointer.of(extrema),
        )
        if k < 0:
            raise _FAILURE[k]()
        return k

    def brent_cycle(h0, rows, cap, order=None):
        """Compiled reference.brent_cycle."""
        if h0.dtype == object:
            return reference.brent_cycle(h0, rows, cap, order)
        _Arguments.rows("brent_cycle", h0, rows, order=order)
        lam = ctypes.c_int64()
        mu = _compiled[h0.dtype].brent_cycle(
            _Pointer.of(h0), *rows.address, h0.shape[0], rows.indices.shape[0],
            cap, ctypes.byref(lam), None if order is None else _Pointer.of(order),
            0 if order is None else order.shape[0],
        )
        if mu < -1:
            raise _FAILURE[mu]()
        return mu, lam.value

    def rotor_walk(itinerary, run_ptr, targets, counts, at, left):
        """Compiled reference.rotor_walk."""
        _Arguments.runs(itinerary, run_ptr, targets, counts, at, left)
        k = _compiled[_INT64].rotor_walk(
            _Pointer.of(itinerary), itinerary.shape[0] - 1, _Pointer.of(run_ptr),
            _Pointer.of(targets), _Pointer.of(counts), at.shape[0], targets.shape[0],
            _Pointer.of(at), _Pointer.of(left),
        )
        if k < 0:
            raise _FAILURE[k]()
        return k

    def csv_rows(f, fields):
        """Compiled reference.csv_rows, or the reference when a field needs
        Python ints or is not float64 floats (see _Arguments.fields). Float64
        cells come out as repr writes them. Rows go out in pieces of
        at most _PIECE bytes (or one row), written into one buffer per call."""
        prepared = _Arguments.fields(fields)
        if prepared is None:
            return reference.csv_rows(f, fields)
        spec, rows, _arrays = prepared  # _arrays keeps spec's pointers valid
        write = _compiled[_INT64].csv_rows
        row = ctypes.c_int64(0)
        bound = write(spec, len(spec), ctypes.byref(row), rows, None, 0)
        out = np.empty(min(rows * bound, max(bound, _PIECE)), np.uint8)
        address = _Pointer.of(out)
        while row.value < rows:
            n = write(spec, len(spec), ctypes.byref(row), rows, address, out.shape[0])
            if n < 0:
                raise _FAILURE[n]()
            f.write(str(out[:n], "utf-8"))
