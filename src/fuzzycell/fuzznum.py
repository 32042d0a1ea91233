"""Discrete fuzzy integers and their arithmetic.

A :class:`FuzzyInt` is a normal fuzzy set over the integers: a finite,
non-empty support where every value carries a membership grade in (0, 1]
and at least one grade is exactly 1.  It is the universal value type of
the simulation (positions, velocities, gaps, vehicle lengths, queue
lengths are all FuzzyInt).

Binary operations are lifted from crisp integer arithmetic with the
sup-min extension principle, which on finite supports becomes a max-min
sweep over support pairs:

    mu_out(z) = max { min(mu_a(x), mu_b(y)) : x op y = z }

Two interchangeable realizations exist for each operation: a production
path (pure-Python for small supports, vectorized numpy for large ones)
and :func:`oracle_ext_op`, a deliberately naive double loop kept free of
any shortcut so the test suite can cross-check the optimized code.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "FuzzyInt",
    "FuzzyNumError",
    "EmptySupportError",
    "NotNormalError",
    "BadGradeError",
    "DuplicateValueError",
    "BadExponentError",
    "make_fuzzy",
    "crisp",
    "ext_add",
    "ext_sub",
    "ext_min",
    "dilate",
    "defuzz_argmax",
    "alpha_cut",
    "truncate",
    "wrap_mod",
    "oracle_ext_op",
]

# Below this many support pairs the plain-Python sweep beats numpy's
# per-call overhead.
_SMALL_PAIRS = 256


class FuzzyNumError(ValueError):
    """Base class for fuzzy-integer construction and operation errors."""


class EmptySupportError(FuzzyNumError):
    """Raised when a fuzzy integer would have no support values."""


class NotNormalError(FuzzyNumError):
    """Raised when no support value carries grade 1."""


class BadGradeError(FuzzyNumError):
    """Raised for membership grades outside (0, 1]."""


class DuplicateValueError(FuzzyNumError):
    """Raised when the same support value appears twice."""


class BadExponentError(FuzzyNumError):
    """Raised for dilation exponents outside (0, 1]."""


class FuzzyInt:
    """A normal discrete fuzzy set over the integers.

    Instances are immutable; every operation returns a new object, so
    values can be shared freely between concurrent workers.
    """

    __slots__ = ("_values", "_grades")

    def __init__(self, pairs):
        values, grades = _validate_pairs(pairs)
        self._values = values
        self._grades = grades

    # Internal constructor for results that are sorted, unique, normal
    # and zero-free by construction.  Takes ownership of the arrays.
    @classmethod
    def _from_arrays(cls, values: np.ndarray, grades: np.ndarray) -> "FuzzyInt":
        obj = cls.__new__(cls)
        values.setflags(write=False)
        grades.setflags(write=False)
        obj._values = values
        obj._grades = grades
        return obj

    @property
    def values(self) -> np.ndarray:
        """Support values, sorted ascending (read-only array)."""
        return self._values

    @property
    def grades(self) -> np.ndarray:
        """Membership grades aligned with :attr:`values` (read-only)."""
        return self._grades

    @property
    def is_crisp(self) -> bool:
        return self._values.size == 1

    def grade(self, value: int) -> float:
        """Membership grade of ``value`` (0.0 if outside the support)."""
        i = np.searchsorted(self._values, value)
        if i < self._values.size and self._values[i] == value:
            return float(self._grades[i])
        return 0.0

    def support(self) -> tuple[int, int]:
        """(min, max) of the support."""
        return int(self._values[0]), int(self._values[-1])

    def to_pairs(self) -> list[tuple[int, float]]:
        return list(zip(self._values.tolist(), self._grades.tolist()))

    def approx_equals(self, other: "FuzzyInt", tol: float = 1e-12) -> bool:
        """Same support and grades equal within absolute tolerance."""
        return bool(
            np.array_equal(self._values, other._values)
            and np.allclose(self._grades, other._grades, rtol=0.0, atol=tol)
        )

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self):
        return iter(self.to_pairs())

    def __eq__(self, other):
        if not isinstance(other, FuzzyInt):
            return NotImplemented
        return bool(
            np.array_equal(self._values, other._values)
            and np.array_equal(self._grades, other._grades)
        )

    __hash__ = None  # mutable-looking numerical content; not hashable

    def __add__(self, other):
        if not isinstance(other, FuzzyInt):
            return NotImplemented
        return ext_add(self, other)

    def __sub__(self, other):
        if not isinstance(other, FuzzyInt):
            return NotImplemented
        return ext_sub(self, other)

    def __str__(self) -> str:
        # "{g/v; ...}" sorted by value, grades with up to 4 decimals.
        parts = []
        for v, g in zip(self._values.tolist(), self._grades.tolist()):
            text = f"{g:.4f}".rstrip("0").rstrip(".")
            parts.append(f"{text}/{v}")
        return "{" + "; ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"FuzzyInt({self})"

    # Plain tuples keep pickling independent of the read-only array flags.
    def __getstate__(self):
        return (self._values.tolist(), self._grades.tolist())

    def __setstate__(self, state):
        values = np.asarray(state[0], dtype=np.int64)
        grades = np.asarray(state[1], dtype=np.float64)
        values.setflags(write=False)
        grades.setflags(write=False)
        self._values = values
        self._grades = grades


def _validate_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(pairs)
    if not pairs:
        raise EmptySupportError("fuzzy integer needs a non-empty support")
    values = []
    grades = []
    for value, grade in pairs:
        values.append(operator.index(value))
        grade = float(grade)
        if not (0.0 < grade <= 1.0):
            raise BadGradeError(f"grade {grade!r} for value {value} not in (0, 1]")
        grades.append(grade)
    if len(set(values)) != len(values):
        seen = set()
        dup = next(v for v in values if v in seen or seen.add(v))
        raise DuplicateValueError(f"value {dup} listed more than once")
    if max(grades) < 1.0:
        raise NotNormalError(f"maximal grade {max(grades)} < 1; set is not normal")
    order = sorted(range(len(values)), key=values.__getitem__)
    varr = np.array([values[i] for i in order], dtype=np.int64)
    garr = np.array([grades[i] for i in order], dtype=np.float64)
    varr.setflags(write=False)
    garr.setflags(write=False)
    return varr, garr


def make_fuzzy(pairs) -> FuzzyInt:
    """Build a FuzzyInt from (value, grade) pairs, enforcing all invariants."""
    return FuzzyInt(pairs)


def crisp(value: int) -> FuzzyInt:
    """The crisp singleton {1/value}."""
    return FuzzyInt._from_arrays(
        np.array([operator.index(value)], dtype=np.int64),
        np.array([1.0], dtype=np.float64),
    )


def _from_dict(best: dict[int, float]) -> FuzzyInt:
    values = np.fromiter(best.keys(), dtype=np.int64, count=len(best))
    grades = np.fromiter(best.values(), dtype=np.float64, count=len(best))
    order = np.argsort(values, kind="stable")
    return FuzzyInt._from_arrays(values[order], grades[order])


def _dense(f: FuzzyInt) -> tuple[int, np.ndarray]:
    """Embed the support on a contiguous grid: (lowest value, grade array)."""
    lo = int(f._values[0])
    arr = np.zeros(int(f._values[-1]) - lo + 1, dtype=np.float64)
    arr[f._values - lo] = f._grades
    return lo, arr


def _from_dense(lo: int, arr: np.ndarray) -> FuzzyInt:
    idx = np.flatnonzero(arr)
    return FuzzyInt._from_arrays(idx + lo, arr[idx])


def _dense_rows(sets, lo: int = 0, width: int | None = None) -> np.ndarray:
    """Embed many fuzzy sets as grade rows; column c holds value lo + c.

    ``width`` defaults to the columns up to the largest support value.
    """
    if width is None:
        width = max(int(f._values[-1]) for f in sets) - lo + 1
    grid = np.zeros((len(sets), width), dtype=np.float64)
    rows = np.arange(len(sets)).repeat([f._values.size for f in sets])
    values = np.concatenate([f._values for f in sets]) - lo
    grid[rows, values] = np.concatenate([f._grades for f in sets])
    return grid


def _from_dense_rows(lo: int, grid: np.ndarray) -> list[FuzzyInt]:
    """The fuzzy set of each row of ``grid``, as :func:`_from_dense` does for one."""
    rows, idx = grid.nonzero()
    values = idx + lo
    grades = grid[rows, idx]
    values.setflags(write=False)  # slices of read-only arrays are read-only
    grades.setflags(write=False)
    ends = np.bincount(rows, minlength=grid.shape[0]).cumsum().tolist()
    out = []
    for start, end in zip([0, *ends], ends):
        f = FuzzyInt.__new__(FuzzyInt)
        f._values = values[start:end]
        f._grades = grades[start:end]
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# extension-principle operations


def ext_add(a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    """Extension-principle sum: mu(z) = max over x+y=z of min(mu_a, mu_b)."""
    if a._values.size == 1 and b._values.size == 1:
        if a._grades[0] == 1.0 and b._grades[0] == 1.0:
            return crisp(int(a._values[0]) + int(b._values[0]))
    if a._values.size * b._values.size <= _SMALL_PAIRS:
        best: dict[int, float] = {}
        for x, gx in zip(a._values.tolist(), a._grades.tolist()):
            for y, gy in zip(b._values.tolist(), b._grades.tolist()):
                z = x + y
                g = gx if gx < gy else gy
                if g > best.get(z, 0.0):
                    best[z] = g
        return _from_dict(best)
    return _shift_combine(a, b, negate_small=False)


def ext_sub(a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    """Extension-principle difference: mu(z) = max over x-y=z of min grades."""
    if a._values.size == 1 and b._values.size == 1:
        if a._grades[0] == 1.0 and b._grades[0] == 1.0:
            return crisp(int(a._values[0]) - int(b._values[0]))
    if a._values.size * b._values.size <= _SMALL_PAIRS:
        best: dict[int, float] = {}
        for x, gx in zip(a._values.tolist(), a._grades.tolist()):
            for y, gy in zip(b._values.tolist(), b._grades.tolist()):
                z = x - y
                g = gx if gx < gy else gy
                if g > best.get(z, 0.0):
                    best[z] = g
        return _from_dict(best)
    return _shift_combine(a, b, negate_small=True)


def _shift_combine(a: FuzzyInt, b: FuzzyInt, negate_small: bool) -> FuzzyInt:
    """Max-min convolution on a dense grid, shifting by the smaller support.

    For every support value y of the smaller operand, the contribution to
    the output grid is min(dense(larger), grade(y)) placed at offset +y
    (or -y for subtraction with the smaller operand on the right).
    """
    big, small = (a, b) if a._values.size >= b._values.size else (b, a)
    swapped = big is b
    lo_big, dense_big = _dense(big)
    span = dense_big.size
    s_values = small._values.tolist()
    s_grades = small._grades.tolist()

    if not negate_small:
        offsets = [lo_big + y for y in s_values]
    elif not swapped:  # a - b with b small: z = x - y
        offsets = [lo_big - y for y in s_values]
    else:  # a - b with a small: z falls as the subtrahend grows, so flip
        dense_big = dense_big[::-1]
        hi_big = lo_big + span - 1
        offsets = [y - hi_big for y in s_values]

    out_lo = min(offsets)
    out = np.zeros(max(offsets) - out_lo + span, dtype=np.float64)
    for off, gy in zip(offsets, s_grades):
        start = off - out_lo
        seg = out[start : start + span]
        np.maximum(seg, np.minimum(dense_big, gy), out=seg)
    return _from_dense(out_lo, out)


def ext_min(*operands: FuzzyInt) -> FuzzyInt:
    """N-ary extension-principle minimum (fold of the binary operation).

    The binary operation is associative on this representation, so the
    fold realizes the n-ary sup-min definition exactly.
    """
    if len(operands) == 1 and not isinstance(operands[0], FuzzyInt):
        operands = tuple(operands[0])
    if len(operands) < 2:
        raise TypeError("ext_min needs at least two operands")
    acc = operands[0]
    for other in operands[1:]:
        acc = _ext_min2(acc, other)
    return acc


def _ext_min2(a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    # min(x, y) = z requires (x = z and y >= z) or (y = z and x >= z), so
    # mu(z) = max(min(mu_a(z), S_b(z)), min(mu_b(z), S_a(z))) with S the
    # running suffix maximum of the other operand's grades.
    if a._values.size == 1 and b._values.size == 1:
        if a._grades[0] == 1.0 and b._grades[0] == 1.0:
            return crisp(min(int(a._values[0]), int(b._values[0])))
    if a._values.size * b._values.size <= _SMALL_PAIRS:
        best: dict[int, float] = {}
        for x, gx in zip(a._values.tolist(), a._grades.tolist()):
            for y, gy in zip(b._values.tolist(), b._grades.tolist()):
                z = x if x < y else y
                g = gx if gx < gy else gy
                if g > best.get(z, 0.0):
                    best[z] = g
        return _from_dict(best)

    lo = min(int(a._values[0]), int(b._values[0]))
    hi = min(int(a._values[-1]), int(b._values[-1]))
    n = hi - lo + 1
    da = np.zeros(n, dtype=np.float64)
    db = np.zeros(n, dtype=np.float64)
    ia = a._values <= hi
    ib = b._values <= hi
    da[a._values[ia] - lo] = a._grades[ia]
    db[b._values[ib] - lo] = b._grades[ib]
    sa = _suffix_max_from(a, lo, n)
    sb = _suffix_max_from(b, lo, n)
    out = np.maximum(np.minimum(da, sb), np.minimum(db, sa))
    return _from_dense(lo, out)


def _suffix_max_from(f: FuzzyInt, lo: int, n: int) -> np.ndarray:
    """suffix[i] = max grade of f over values >= lo + i, for i in [0, n)."""
    flo, dense = _dense(f)
    suf = np.maximum.accumulate(dense[::-1])[::-1]
    out = np.zeros(n, dtype=np.float64)
    idx = np.arange(lo, lo + n) - flo
    inside = idx < dense.size
    out[inside] = suf[np.maximum(idx[inside], 0)]
    return out


# ---------------------------------------------------------------------------
# unary operations


def dilate(a: FuzzyInt, e: float) -> FuzzyInt:
    """Raise every grade to the power e in (0, 1], increasing fuzziness.

    e = 1 is the identity; smaller exponents lift sub-maximal grades
    toward 1 while the support and the grade-1 values stay unchanged.
    """
    e = float(e)
    if not (0.0 < e <= 1.0):
        raise BadExponentError(f"dilation exponent {e!r} not in (0, 1]")
    if e == 1.0 or a._values.size == 1:
        return a
    return FuzzyInt._from_arrays(a._values, np.power(a._grades, e))


def defuzz_argmax(a: FuzzyInt) -> int:
    """The support value with maximal grade; ties break to the smallest."""
    return int(a._values[int(np.argmax(a._grades))])


def alpha_cut(a: FuzzyInt, theta: float) -> tuple[int, int]:
    """(min, max) of the values whose grade is >= theta, for theta in (0, 1]."""
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"alpha-cut threshold {theta!r} not in (0, 1]")
    idx = np.flatnonzero(a._grades >= theta)
    return int(a._values[idx[0]]), int(a._values[idx[-1]])


def truncate(a: FuzzyInt, epsilon: float) -> FuzzyInt:
    """Drop support values with grade < epsilon (epsilon in [0, 1)).

    Entries at the maximal grade always survive, so the grade-1 values of
    a normal set are never removed and sub-normal intermediates cannot be
    truncated into emptiness.
    """
    epsilon = float(epsilon)
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"truncation grade {epsilon!r} not in [0, 1)")
    if epsilon == 0.0:
        return a
    keep = a._grades >= min(epsilon, float(a._grades.max()))
    if keep.all():
        return a
    return FuzzyInt._from_arrays(a._values[keep], a._grades[keep])


def wrap_mod(a: FuzzyInt, modulus: int) -> FuzzyInt:
    """Reduce support values modulo ``modulus``, merging grades by max."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    lo = int(a._values[0])
    hi = int(a._values[-1])
    if 0 <= lo and hi < modulus:
        return a
    if 0 <= lo and hi < 2 * modulus:
        # common ring-advance shape: a short overflow past the seam
        out = np.zeros(modulus, dtype=np.float64)
        cut = int(np.searchsorted(a._values, modulus))
        out[a._values[:cut]] = a._grades[:cut]
        np.maximum.at(out, a._values[cut:] - modulus, a._grades[cut:])
        return _from_dense(0, out)
    best: dict[int, float] = {}
    for v, g in zip(a._values.tolist(), a._grades.tolist()):
        z = v % modulus
        if g > best.get(z, 0.0):
            best[z] = g
    return _from_dict(best)


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_ext_op(op: str, a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    """Reference realization of the binary extension-principle operations.

    Exhaustive double loop over the full supports with no shortcuts or
    vectorization; the production operations must match it exactly.
    """
    if op == "add":
        fn = lambda x, y: x + y
    elif op == "sub":
        fn = lambda x, y: x - y
    elif op == "min":
        fn = min
    else:
        raise ValueError(f"unknown operation {op!r}")
    best: dict[int, float] = {}
    for x, gx in a.to_pairs():
        for y, gy in b.to_pairs():
            z = fn(x, y)
            g = min(gx, gy)
            if g > best.get(z, 0.0):
                best[z] = g
    pairs = sorted(best.items())
    values = np.array([v for v, _ in pairs], dtype=np.int64)
    grades = np.array([g for _, g in pairs], dtype=np.float64)
    return FuzzyInt._from_arrays(values, grades)
