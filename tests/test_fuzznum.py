"""Fuzzy-integer construction, arithmetic, and algebraic properties."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzycell import (
    BadExponentError,
    BadGradeError,
    DuplicateValueError,
    EmptySupportError,
    FuzzyInt,
    NotNormalError,
    alpha_cut,
    crisp,
    defuzz_argmax,
    dilate,
    ext_add,
    ext_min,
    ext_sub,
    make_fuzzy,
    oracle_ext_op,
    truncate,
    wrap_mod,
)
from fuzzycell.fuzznum import _from_dense_rows, _max_merge

from conftest import fuzzy_ints


def fz(*pairs):
    return make_fuzzy(list(pairs))


# ---------------------------------------------------------------------------
# construction


def test_make_fuzzy_singleton():
    f = make_fuzzy([(0, 1.0)])
    assert f.to_pairs() == [(0, 1.0)]
    assert f.is_crisp


def test_make_fuzzy_sorts_by_value():
    f = make_fuzzy([(6, 0.2), (4, 0.2), (5, 1.0)])
    assert f.to_pairs() == [(4, 0.2), (5, 1.0), (6, 0.2)]


def test_make_fuzzy_rejects_empty():
    with pytest.raises(EmptySupportError):
        make_fuzzy([])


def test_make_fuzzy_rejects_subnormal():
    with pytest.raises(NotNormalError):
        make_fuzzy([(3, 0.5)])


@pytest.mark.parametrize("grade", [0.0, -0.1, 1.5, float("nan")])
def test_make_fuzzy_rejects_bad_grades(grade):
    with pytest.raises(BadGradeError):
        make_fuzzy([(1, grade), (2, 1.0)])


def test_make_fuzzy_rejects_duplicates():
    with pytest.raises(DuplicateValueError):
        make_fuzzy([(5, 0.5), (5, 1.0)])


def test_make_fuzzy_rejects_non_integers():
    with pytest.raises(TypeError):
        make_fuzzy([(1.5, 1.0)])


def test_values_are_read_only():
    f = fz((1, 1.0), (2, 0.5))
    with pytest.raises(ValueError):
        f.values[0] = 7
    # sets split from one dense grid share its arrays, read-only too
    rows = _from_dense_rows(3, np.array([[0.0, 1.0, 0.4], [1.0, 0.0, 0.0]]))
    assert [r.to_pairs() for r in rows] == [[(4, 1.0), (5, 0.4)], [(3, 1.0)]]
    for r in rows:
        for arr in (r.values, r.grades):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_grade_lookup():
    f = fz((4, 0.2), (5, 1.0), (6, 0.2))
    assert f.grade(5) == 1.0
    assert f.grade(4) == 0.2
    assert f.grade(7) == 0.0


def test_is_normal():
    assert fz((1, 0.5), (2, 1.0)).is_normal
    assert crisp(0).is_normal
    sub = FuzzyInt._from_arrays(np.array([1, 4]), np.array([0.5, 0.25]))
    assert not sub.is_normal
    with pytest.raises(AttributeError):
        sub.is_normal = True


def test_rendering():
    assert str(fz((4, 0.2), (5, 1.0), (6, 0.2))) == "{0.2/4; 1/5; 0.2/6}"
    assert str(crisp(0)) == "{1/0}"
    assert str(fz((0, 0.2275), (1, 1.0))) == "{0.2275/0; 1/1}"


def test_equality_and_pickle():
    f = fz((1, 0.5), (2, 1.0))
    assert f == fz((2, 1.0), (1, 0.5))
    assert f != fz((1, 0.4), (2, 1.0))
    assert pickle.loads(pickle.dumps(f)) == f


# ---------------------------------------------------------------------------
# extension-principle operations


def test_ext_add_crisp():
    assert ext_add(crisp(2), crisp(3)) == crisp(5)


def test_ext_add_zero_identity():
    f = fz((0, 0.2), (1, 1.0), (2, 0.2))
    assert ext_add(f, crisp(0)) == f


def test_ext_add_mixed():
    got = ext_add(fz((1, 0.5), (2, 1.0)), fz((3, 1.0), (4, 0.4)))
    assert got.to_pairs() == [(4, 0.5), (5, 1.0), (6, 0.4)]


def test_ext_sub_crisp():
    assert ext_sub(crisp(5), crisp(1)) == crisp(4)
    assert ext_sub(crisp(5), crisp(5)) == crisp(0)


def test_ext_sub_mixed():
    got = ext_sub(fz((5, 1.0), (6, 0.4)), fz((1, 0.5), (2, 1.0)))
    assert got.to_pairs() == [(3, 1.0), (4, 0.5), (5, 0.4)]


def test_ext_min_crisp():
    assert ext_min(crisp(2), crisp(3)) == crisp(2)


def test_ext_min_disjoint_supports():
    got = ext_min(fz((0, 0.2), (1, 1.0), (2, 0.2)), fz((4, 0.2), (5, 1.0), (6, 0.2)))
    assert got.to_pairs() == [(0, 0.2), (1, 1.0), (2, 0.2)]


def test_ext_min_idempotent():
    f = fz((1, 0.3), (3, 1.0), (7, 0.6))
    assert ext_min(f, f) == f


def test_ext_min_needs_two_operands():
    with pytest.raises(TypeError):
        ext_min(crisp(1))
    with pytest.raises(TypeError):
        ext_min([crisp(1), crisp(2)])


def test_operators_delegate():
    assert (crisp(2) + crisp(3)) == crisp(5)
    assert (crisp(5) - crisp(1)) == crisp(4)


# ---------------------------------------------------------------------------
# unary operations


def test_dilate_identity_at_one():
    f = fz((0, 0.2), (1, 1.0))
    assert dilate(f, 1.0) is f


def test_dilate_crisp_fixed_point():
    assert dilate(crisp(3), 0.5) == crisp(3)


def test_dilate_grades():
    got = dilate(fz((0, 0.2), (1, 1.0), (2, 0.2)), 0.92)
    expected = math.pow(0.2, 0.92)
    assert got.values.tolist() == [0, 1, 2]
    assert got.grade(0) == pytest.approx(expected, abs=1e-12)
    assert got.grade(1) == 1.0
    assert got.grade(2) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("e", [0.0, -0.5, 1.2])
def test_dilate_rejects_bad_exponent(e):
    with pytest.raises(BadExponentError):
        dilate(crisp(1), e)


def test_defuzz_argmax():
    assert defuzz_argmax(fz((4, 0.2), (5, 1.0), (6, 0.2))) == 5
    assert defuzz_argmax(crisp(0)) == 0
    assert defuzz_argmax(fz((2, 1.0), (7, 1.0))) == 2  # smallest on ties


def test_alpha_cut():
    f = fz((4, 0.2), (5, 1.0), (6, 0.2))
    assert alpha_cut(f, 0.99) == (5, 5)
    assert alpha_cut(f, 0.1) == (4, 6)
    assert alpha_cut(crisp(0), 1.0) == (0, 0)
    with pytest.raises(ValueError):
        alpha_cut(f, 0.0)
    with pytest.raises(ValueError):
        alpha_cut(f, 1.5)


def test_truncate():
    f = fz((0, 0.005), (1, 1.0), (2, 0.3))
    assert truncate(f, 0.01).to_pairs() == [(1, 1.0), (2, 0.3)]
    assert truncate(f, 0.0) is f
    assert truncate(crisp(3), 0.5) == crisp(3)
    with pytest.raises(ValueError):
        truncate(f, 1.0)


def test_wrap_mod():
    f = fz((98, 0.3), (101, 1.0), (1, 0.5))
    assert wrap_mod(f, 100).to_pairs() == [(1, 1.0), (98, 0.3)]
    inside = fz((3, 1.0), (5, 0.2))
    assert wrap_mod(inside, 10) is inside
    negative = fz((-1, 0.5), (0, 1.0))
    assert wrap_mod(negative, 10).to_pairs() == [(0, 1.0), (9, 0.5)]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_examples():
    assert oracle_ext_op("add", crisp(2), crisp(3)) == crisp(5)
    assert oracle_ext_op("sub", crisp(5), crisp(1)) == crisp(4)
    got = oracle_ext_op("min", fz((1, 0.5), (2, 1.0)), fz((0, 1.0), (3, 0.5)))
    assert got.to_pairs() == [(0, 1.0), (1, 0.5), (2, 0.5)]
    with pytest.raises(ValueError):
        oracle_ext_op("mul", crisp(1), crisp(1))


_PRODUCTION = {"add": ext_add, "sub": ext_sub, "min": ext_min}


@settings(max_examples=150)
@given(a=fuzzy_ints(), b=fuzzy_ints(), op=st.sampled_from(["add", "sub", "min"]))
def test_production_matches_oracle(a, b, op):
    got = _PRODUCTION[op](a, b)
    assert got == oracle_ext_op(op, a, b)


@settings(max_examples=150)
@given(
    a=fuzzy_ints(-(10**6), 10**6, max_size=24),
    b=fuzzy_ints(-(10**6), 10**6, max_size=24),
    op=st.sampled_from(["add", "sub", "min"]),
)
def test_production_matches_oracle_on_sparse_supports(a, b, op):
    # up to 576 support pairs spread over two million cells
    assert _PRODUCTION[op](a, b) == oracle_ext_op(op, a, b)


def test_production_matches_oracle_on_wide_supports():
    # dense supports of 20-90 values: up to 8100 support pairs per op
    rng = np.random.default_rng(12)
    for _ in range(60):
        fs = []
        for _ in range(2):
            n = int(rng.integers(20, 90))
            values = rng.choice(np.arange(-120, 120), size=n, replace=False)
            grades = rng.uniform(0.01, 1.0, size=n)
            grades[rng.integers(n)] = 1.0
            fs.append(make_fuzzy(list(zip(values.tolist(), grades.tolist()))))
        for op, fn in _PRODUCTION.items():
            assert fn(fs[0], fs[1]) == oracle_ext_op(op, fs[0], fs[1])


def test_ext_ops_memory_follows_pairs_not_span():
    # 17 x 16 support values over two million cells: 272 pairs
    a = make_fuzzy([(v, 1.0 if v == 0 else 0.5) for v in range(-(10**6), 10**6 + 1, 125_000)])
    b = make_fuzzy([(v, 1.0 if v == 0 else 0.3) for v in range(0, 10**6, 62_500)])
    assert (len(a), len(b)) == (17, 16)
    for op, fn in _PRODUCTION.items():
        tracemalloc.start()
        try:
            got = fn(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"ext_{op} peaked at {peak / 1e6:.1f} MB"
        assert got == oracle_ext_op(op, a, b)


@settings(max_examples=150)
@given(data=st.data(), modulus=st.integers(1, 40))
def test_wrap_mod_matches_per_pair_reference(data, modulus):
    f = data.draw(fuzzy_ints(-3 * modulus, 3 * modulus))
    best = {}
    for v, g in f.to_pairs():
        z = v % modulus
        best[z] = max(g, best.get(z, 0.0))
    got = wrap_mod(f, modulus)
    assert got.to_pairs() == sorted(best.items())
    low, high = f.support()
    if 0 <= low and high < modulus:
        assert got is f


@given(a=fuzzy_ints(), b=fuzzy_ints())
def test_normality_preserved(a, b):
    for out in (ext_add(a, b), ext_sub(a, b), ext_min(a, b), dilate(a, 0.7), truncate(a, 0.5)):
        assert out.grades.max() == 1.0


@given(x=st.integers(-50, 50), y=st.integers(-50, 50))
def test_crisp_embedding(x, y):
    assert ext_add(crisp(x), crisp(y)) == crisp(x + y)
    assert ext_sub(crisp(x), crisp(y)) == crisp(x - y)
    assert ext_min(crisp(x), crisp(y)) == crisp(min(x, y))


@given(
    g=st.floats(min_value=0.001, max_value=0.999),
    e=st.floats(min_value=0.1, max_value=1.0),
    shrink=st.floats(min_value=0.05, max_value=0.95),
)
def test_dilation_monotonic_in_exponent(g, e, shrink):
    stronger = e * shrink  # strictly smaller exponent dilates more
    f = fz((0, g), (1, 1.0))
    assert dilate(f, stronger).grade(0) > dilate(f, e).grade(0)


@given(a=fuzzy_ints(), b=fuzzy_ints())
def test_add_support_bounds(a, b):
    out = ext_add(a, b)
    lo = a.values[0] + b.values[0]
    hi = a.values[-1] + b.values[-1]
    assert lo <= out.values[0] and out.values[-1] <= hi


def _oracle_min_many(operands):
    # n-ary sup-min by full tuple enumeration
    best = {}
    stack = [((), 1.0)]
    for f in operands:
        stack = [
            (chosen + (v,), min(g, q))
            for chosen, g in stack
            for v, q in f.to_pairs()
        ]
    for chosen, g in stack:
        z = min(chosen)
        if g > best.get(z, 0.0):
            best[z] = g
    return sorted(best.items())


@settings(max_examples=60)
@given(a=fuzzy_ints(max_size=5), b=fuzzy_ints(max_size=5), c=fuzzy_ints(max_size=5))
def test_ext_min_associative_and_matches_nary_oracle(a, b, c):
    left = ext_min(ext_min(a, b), c)
    right = ext_min(a, ext_min(b, c))
    assert left == right
    assert left.to_pairs() == pytest.approx(_oracle_min_many([a, b, c]))


@settings(max_examples=60)
@given(a=fuzzy_ints(), b=fuzzy_ints())
def test_ext_ops_commutative(a, b):
    assert ext_add(a, b) == ext_add(b, a)
    assert ext_min(a, b) == ext_min(b, a)


# ---------------------------------------------------------------------------
# the merge kernel and the unary operations against per-pair references


@st.composite
def fuzzy_sets(draw):
    """A fuzzy set that may be sub-normal, built the way internal results
    are: through ``FuzzyInt._from_arrays``."""
    values = sorted(draw(st.sets(st.integers(-20, 20), min_size=1, max_size=8)))
    grades = [draw(st.floats(0.001, 1.0)) for _ in values]
    if draw(st.booleans()):
        grades[draw(st.integers(0, len(values) - 1))] = 1.0
    return FuzzyInt._from_arrays(np.array(values, dtype=np.int64),
                                 np.array(grades, dtype=np.float64))


_FAR = 2**62
_candidate_values = st.one_of(
    st.integers(-3, 3),  # heavy duplicates
    st.integers(-(10**6), 10**6),
    st.integers(_FAR - 4, _FAR + 4),
    st.integers(-_FAR - 4, -_FAR + 4),
)


@settings(max_examples=100)
@given(st.lists(st.tuples(_candidate_values, st.floats(0.001, 1.0)), min_size=1, max_size=40))
def test_max_merge_matches_dict_reference(candidates):
    best = {}
    for v, g in candidates:
        best[v] = max(g, best.get(v, 0.0))
    values = np.array([v for v, _ in candidates], dtype=np.int64)
    grades = np.array([g for _, g in candidates], dtype=np.float64)
    got = _max_merge(values, grades)
    assert got.to_pairs() == sorted(best.items())
    assert got.values.dtype == np.int64 and got.grades.dtype == np.float64
    assert not got.values.flags.writeable and not got.grades.flags.writeable
    # the candidate arrays are read, not reordered in place
    assert values.tolist() == [v for v, _ in candidates]


def test_max_merge_single_candidate():
    got = _max_merge(np.array([-(2**62)], dtype=np.int64), np.array([0.25]))
    assert got.to_pairs() == [(-(2**62), 0.25)]
    assert not got.is_normal


@settings(max_examples=100)
@given(a=fuzzy_sets(), data=st.data())
def test_truncate_matches_per_pair_reference(a, data):
    # values graded at least epsilon survive; when none is, which only a
    # sub-normal set allows, its top-graded values survive instead
    top = float(a.grades.max())
    any_epsilon = st.floats(0.0, 1.0, exclude_max=True)
    above_top = st.floats(top, 1.0, exclude_max=True) if top < 1.0 else any_epsilon
    epsilon = data.draw(any_epsilon | above_top, label="epsilon")
    pairs = a.to_pairs()
    want = [(v, g) for v, g in pairs if g >= epsilon] or [(v, g) for v, g in pairs if g == top]
    got = truncate(a, epsilon)
    assert got.to_pairs() == want
    if len(want) == len(pairs):
        assert got is a


@settings(max_examples=80)
@given(a=fuzzy_sets(), e=st.floats(0.0, 1.0, exclude_min=True))
def test_dilate_matches_per_pair_reference(a, e):
    got = dilate(a, e)
    if e == 1.0:
        assert got is a
    assert got.values.tolist() == a.values.tolist()
    for g_in, g_out in zip(a.grades.tolist(), got.grades.tolist()):
        assert g_out == pytest.approx(math.pow(g_in, e), rel=1e-15)
        assert g_in <= g_out <= 1.0
    assert not got.grades.flags.writeable
