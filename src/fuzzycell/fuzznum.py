"""Discrete fuzzy integers and their arithmetic.

A :class:`FuzzyInt` is a fuzzy set over the integers: a finite,
non-empty support where every value carries a membership grade in (0, 1].
Sets built from pairs are normal (at least one grade is exactly 1).  The
model can derive sub-normal ones: ``model.gap`` when its ahead-filter
drops every grade-1 pair, and every set computed from a sub-normal
operand.  :attr:`FuzzyInt.is_normal` tells the two apart.  FuzzyInt is
the universal value type of the simulation (positions, velocities, gaps,
vehicle lengths, queue lengths are all FuzzyInt).

Binary operations are lifted from crisp integer arithmetic with the
sup-min extension principle, which on finite supports becomes a max-min
sweep over support pairs:

    mu_out(z) = max { min(mu_a(x), mu_b(y)) : x op y = z }

Each operation has one production path: every support pair gives a
candidate value with the smaller of its two grades, and one merge pass
keeps each distinct value once, with its largest grade.  The pass sorts
the candidates once (``argsort``), marks where each run of equal values
starts in a preallocated mask, and reduces the grades gathered in sorted
order with one ``np.maximum.reduceat`` over those starts.  Its work and
memory follow the number of support pairs, not the span of the values.
:func:`wrap_mod` merges the reduced values the same way.  The unary
operations return their operand itself when they would not change it:
:func:`dilate` at exponent 1, :func:`truncate` when no grade falls below
its floor, :func:`wrap_mod` when every value already lies in range.
The hot path calls ndarray methods and ufuncs only, not numpy's
Python-level wrappers such as ``np.argsort`` or ``np.flatnonzero``.
:func:`oracle_ext_op` is a deliberately naive double loop kept free of
any shortcut so the test suite can cross-check the production path.
"""

from __future__ import annotations

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
    """A discrete fuzzy set over the integers.

    The public constructor accepts only normal sets; results derived from
    sub-normal operands may be sub-normal (see :attr:`is_normal`).
    Instances are immutable; every operation returns a new object, so
    values can be shared freely between concurrent workers.
    """

    __slots__ = ("_values", "_grades")

    def __init__(self, pairs):
        values, grades = _validate_pairs(pairs)
        self._values = values
        self._grades = grades

    # Internal constructor for results that are sorted, unique and
    # zero-free by construction.  They are normal only when their inputs
    # were: ``model.gap`` can filter out every grade-1 pair.  Takes
    # ownership of the arrays.
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
    def is_normal(self) -> bool:
        """True when some support value carries grade 1."""
        return bool(self._grades.max() == 1.0)

    @property
    def is_crisp(self) -> bool:
        return self._values.size == 1

    def grade(self, value: int) -> float:
        """Membership grade of ``value`` (0.0 if outside the support)."""
        i = self._values.searchsorted(value)
        if i < self._values.size and self._values[i] == value:
            return float(self._grades[i])
        return 0.0

    def support(self) -> tuple[int, int]:
        """(min, max) of the support."""
        return int(self._values[0]), int(self._values[-1])

    def to_pairs(self) -> list[tuple[int, float]]:
        return list(zip(self._values.tolist(), self._grades.tolist()))

    def __len__(self) -> int:
        return int(self._values.size)

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


def _dense_rows(sets, lo: int = 0, width: int | None = None) -> np.ndarray:
    """Embed many fuzzy sets as grade rows; column c holds value lo + c.

    ``width`` defaults to the columns up to the largest support value,
    and to one column when there are no sets.
    """
    if not sets:
        return np.zeros((0, 1 if width is None else width), dtype=np.float64)
    values = np.concatenate([f._values for f in sets]) - lo
    grades = np.concatenate([f._grades for f in sets])
    sizes = [f._values.size for f in sets]
    if width is None:
        width = int(values.max()) + 1
    grid = np.zeros((len(sets), width), dtype=np.float64)
    grid[np.arange(len(sets)).repeat(sizes), values] = grades
    return grid


def _from_dense_rows(lo: int, grid: np.ndarray) -> list[FuzzyInt]:
    """The fuzzy set of each row of ``grid``: its non-zero columns, from value ``lo``."""
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


def _max_merge(values: np.ndarray, grades: np.ndarray) -> FuzzyInt:
    """The fuzzy set of candidate (value, grade) pairs: one entry per
    distinct value, carrying the largest of its grades."""
    order = values.argsort()
    values = values[order]
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return FuzzyInt._from_arrays(values[starts], np.maximum.reduceat(grades[order], starts))


# ---------------------------------------------------------------------------
# extension-principle operations


def _ext_op(op, a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    # every support pair is a candidate z = op(x, y) with grade min(mu_a(x), mu_b(y))
    return _max_merge(
        op.outer(a._values, b._values).ravel(),
        np.minimum.outer(a._grades, b._grades).ravel(),
    )


def ext_add(a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    """Extension-principle sum: mu(z) = max over x+y=z of min(mu_a, mu_b)."""
    return _ext_op(np.add, a, b)


def ext_sub(a: FuzzyInt, b: FuzzyInt) -> FuzzyInt:
    """Extension-principle difference: mu(z) = max over x-y=z of min grades."""
    return _ext_op(np.subtract, a, b)


def ext_min(*operands: FuzzyInt) -> FuzzyInt:
    """N-ary extension-principle minimum (fold of the binary operation).

    The binary operation is associative on this representation, so the
    fold realizes the n-ary sup-min definition exactly.
    """
    if len(operands) < 2:
        raise TypeError("ext_min needs at least two operands")
    acc = operands[0]
    for other in operands[1:]:
        acc = _ext_op(np.minimum, acc, other)
    return acc


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
    if e == 1.0:
        return a
    return FuzzyInt._from_arrays(a._values, np.power(a._grades, e))


def defuzz_argmax(a: FuzzyInt) -> int:
    """The support value with maximal grade; ties break to the smallest."""
    return int(a._values[a._grades.argmax()])


def alpha_cut(a: FuzzyInt, theta: float) -> tuple[int, int]:
    """(min, max) of the values whose grade is >= theta, for theta in (0, 1];
    the reference for the flow cut bounds of ``model._flow_rows``."""
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"alpha-cut threshold {theta!r} not in (0, 1]")
    idx = (a._grades >= theta).nonzero()[0]
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
    grades = a._grades
    floor = min(epsilon, float(grades.max()))
    if grades.min() >= floor:
        return a
    keep = grades >= floor
    return FuzzyInt._from_arrays(a._values[keep], grades[keep])


def wrap_mod(a: FuzzyInt, modulus: int) -> FuzzyInt:
    """Reduce support values modulo ``modulus``, merging grades by max."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if 0 <= a._values[0] and a._values[-1] < modulus:
        return a
    return _max_merge(a._values % modulus, a._grades)


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
