import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_assets
from fxnet.market_data import ReturnPanel
from fxnet.report import ccdf_files
from fxnet.tails import (
    TailFitError,
    fit_tail_exponent,
    hill_estimate,
    survival_counts,
)
from oracles import ccdf_texts_two_sided, pareto_samples, tail_survival_loop

# a small pool of values (ties, both signed zeros) mixed with normal noise;
# numpy's sort leaves -0.0 and 0.0 in no fixed order, so which zero comes
# first in a run varies with the size and the draw
POOLS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=6,
)


def _pooled_draw(pool, size, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(size) < 0.5, rng.choice(pool, size), rng.standard_normal(size))


def _ccdf_texts(x):
    """The CCDF file text of each side of one series, as `ccdf_files` writes it."""
    rp = ReturnPanel(assets=make_assets(1), returns=np.asarray([x]), sigma=np.ones(1))
    return dict(ccdf_files(rp, "{}"))


def _first_difference(text, want):
    """The first line where two texts differ, as (line number, line of
    `text`, line of `want`), or None. A failing example then reports in a
    few lines, where pytest's diff of two long texts made each step of
    shrinking slow."""
    pairs = itertools.zip_longest(text.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((k, a, b) for k, (a, b) in enumerate(pairs, 1) if a != b), None)


class TestHillEstimate:
    def test_closed_form_fixture(self):
        # three tail points at e, e^2, e^3 above x_min = 1
        tail = np.array([math.e, math.e ** 2, math.e ** 3])
        assert hill_estimate(tail, 1.0) == pytest.approx(3.0 / 6.0, abs=1e-14)

    def test_scale_invariance(self, rng):
        tail = pareto_samples(rng, 200, 3.0) * 2.0
        x_min = 2.0
        a1 = hill_estimate(tail, x_min)
        a2 = hill_estimate(tail * 13.0, x_min * 13.0)
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(TailFitError, match="zero log-spacing"):
            hill_estimate(np.full(20, 2.0), 2.0)

    def test_exact_recovery_on_constructed_spacings(self):
        # mean log-excess exactly 1/alpha recovers alpha exactly
        alpha = 2.5
        excess = np.linspace(0.5, 1.5, 20)  # sums to 20
        tail = np.exp(excess / alpha)
        assert hill_estimate(tail, 1.0) == pytest.approx(alpha, abs=1e-12)


class TestFitTailExponent:
    def test_pareto_inverse_cubic(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng([77, trial])
            samples = pareto_samples(rng, 6000, 3.0)
            fit = fit_tail_exponent(samples, "positive", 0.10)
            hits += 2.7 <= fit.alpha <= 3.3
        assert hits >= 19

    def test_negative_side(self, rng):
        samples = -pareto_samples(rng, 2000, 3.0)
        fit = fit_tail_exponent(samples, "negative", 0.10)
        assert fit.side == "negative"
        assert 2.0 <= fit.alpha <= 4.0

    def test_tail_fields_consistent(self, rng):
        samples = pareto_samples(rng, 1000, 3.0)
        fit = fit_tail_exponent(samples, "positive", 0.10)
        assert fit.k == int(np.sum(samples > fit.x_min))
        assert fit.x_min > 0
        assert fit.tail_fraction == 0.10

    def test_all_equal_samples_rejected(self):
        with pytest.raises(TailFitError, match="tail points"):
            fit_tail_exponent(np.full(500, 3.0), "positive", 0.10)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(TailFitError, match="at least 100"):
            fit_tail_exponent(pareto_samples(rng, 50, 3.0), "positive", 0.10)

    def test_bad_tail_fraction_rejected(self, rng):
        samples = pareto_samples(rng, 500, 3.0)
        for frac in (0.0, -0.1, 0.6):
            with pytest.raises(TailFitError, match="tail_fraction"):
                fit_tail_exponent(samples, "positive", frac)

    def test_non_positive_threshold_rejected(self, rng):
        samples = np.concatenate([-np.abs(rng.standard_normal(450)), pareto_samples(rng, 50, 3.0)])
        with pytest.raises(TailFitError, match="non-positive"):
            fit_tail_exponent(samples, "positive", 0.5)

    def test_scale_invariance(self, rng):
        samples = pareto_samples(rng, 1000, 3.0)
        a1 = fit_tail_exponent(samples, "positive", 0.10).alpha
        a2 = fit_tail_exponent(samples * 42.0, "positive", 0.10).alpha
        assert a1 == pytest.approx(a2, rel=1e-12)


def _bits(values):
    # hex strings tell -0.0 from 0.0, which == does not
    return [float(v).hex() for v in values]


class TestTailSurvival:
    """`survival_counts`, whose counts give the CCDF of each tail."""

    @settings(max_examples=200, deadline=None)
    @given(pool=POOLS, size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_bit_for_bit(self, pool, size, seed):
        x = _pooled_draw(pool, size, seed)
        values, greater, less = survival_counts(x)
        positive = tail_survival_loop(x, "positive")
        # the oracle's negative tail in ascending u = -x
        negative = tail_survival_loop(x, "negative")[::-1]
        # each value but the largest has a greater sample; each but the
        # smallest a less one
        assert greater[-1] == 0 and less[0] == 0
        assert _bits(values[:-1]) == _bits(u for u, _ in positive)
        assert _bits(values[1:]) == _bits(-v + 0.0 for v, _ in negative)
        assert _bits(greater[:-1] / size) == _bits(p for _, p in positive)
        assert _bits(less[1:] / size) == _bits(p for _, p in negative)

    def test_zeros_count_toward_p_but_print_no_row(self):
        # two of the four samples are zeros: P(X > 1) is 1/4, not 1/2
        texts = _ccdf_texts(np.array([0.0, -0.0, 1.0, 2.0]))
        assert texts == {"A00_positive": "x,ccdf\n1,0.25\n", "A00_negative": "x,ccdf\n"}
        for side in ("positive", "negative"):
            texts = [_ccdf_texts(np.array([*zeros, -2.0, -1.0, 1.0, 2.0]))[f"A00_{side}"]
                     for zeros in ([0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0])]
            assert texts == [f"x,ccdf\n1,{1 / 6:.12g}\n"] * 4, side
        assert _bits(survival_counts(np.array([-0.0, 1.0]))[0]) == _bits([0.0, 1.0])

    def test_counting_fixture(self):
        values, greater, less = survival_counts(np.array([2.0, 1.0, 3.0, 2.0]))
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert greater.tolist() == [3, 1, 0]
        assert less.tolist() == [0, 1, 3]

    def test_single_point_empty(self):
        # no sample lies on either side of it: both CCDFs are empty
        values, greater, less = survival_counts(np.array([5.0]))
        assert (values.tolist(), greater.tolist(), less.tolist()) == ([5.0], [0], [0])

    def test_negative_side_negates(self, rng):
        x = rng.standard_normal(50).round(1)  # ties
        values, greater, less = survival_counts(x)
        neg_values, neg_greater, neg_less = survival_counts(-x)
        assert np.array_equal(neg_values, -values[::-1])
        assert np.array_equal(neg_greater, less[::-1])
        assert np.array_equal(neg_less, greater[::-1])

    def test_probabilities_strictly_decreasing(self, rng):
        x = rng.standard_normal(300).round(2)  # ties
        _, greater, less = survival_counts(x)
        assert np.all(np.diff(greater) < 0) and np.all(np.diff(less) > 0)
        assert greater[0] < x.size and less[-1] < x.size
        assert greater[-1] == 0 and np.all(greater[:-1] > 0)

    def test_pareto_loglog_slope(self):
        rng = np.random.default_rng(4242)
        samples = pareto_samples(rng, 1000, 3.0)
        values, greater, _ = survival_counts(samples)
        xs, ps = values[:-1], greater[:-1] / samples.size
        lo, hi = np.quantile(samples, [0.90, 0.99])
        mask = (xs >= lo) & (xs <= hi)
        slope = np.polyfit(np.log(xs[mask]), np.log(ps[mask]), 1)[0]
        assert -slope == pytest.approx(3.0, abs=0.5)

    def test_empty_rejected(self):
        with pytest.raises(TailFitError):
            survival_counts(np.array([]))


# how the writer's draws are reshaped: one-signed series (with and without
# zeros) leave one file of the series without rows, and a mirrored series
# holds v and -v with different multiplicities
SHAPES = {
    "mixed": lambda x: x,
    "positive": lambda x: np.where(x == 0, 1.0, np.abs(x)),
    "negative": lambda x: np.where(x == 0, -1.0, -np.abs(x)),
    "non-negative": lambda x: np.where(np.arange(x.size) % 3 == 0, 0.0, np.abs(x)),
    "mirrored": lambda x: np.concatenate([x, -x[::2]]),
}


def _oracle_text(x, side):
    """A CCDF file's text printed from the loop oracle's (x, P) pairs with x > 0."""
    return "x,ccdf\n" + "".join(f"{v:.12g},{p:.12g}\n"
                                 for v, p in tail_survival_loop(x, side) if v > 0)


def _rows_above_zero(text):
    """A CCDF file's text without its rows x <= 0."""
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(r for r in rows if float(r.split(",")[0]) > 0)


def _shaped_draw(pool, size, seed, shape, scale):
    with np.errstate(over="ignore"):
        return SHAPES[shape](_pooled_draw(pool, size, seed) * scale)


# scales 1e-7 and 1e14 move the normal draws below 1e-4 and past 1e12, where
# `%.12g` switches to its exponent form, on both signs
SERIES = st.builds(_shaped_draw, POOLS, st.integers(1, 3000), st.integers(0, 2**32 - 1),
                   st.sampled_from(sorted(SHAPES)), st.sampled_from([1.0, 1e-7, 1e14]))


class TestCcdfText:
    @settings(max_examples=200, deadline=None)
    @given(x=SERIES)
    def test_matches_csv_of_loop_oracle(self, x):
        texts = _ccdf_texts(x)
        for side in ("positive", "negative"):
            want = _oracle_text(x, side)
            assert _first_difference(texts[f"A00_{side}"], want) is None, side

    @settings(max_examples=200, deadline=None)
    @given(x=SERIES)
    def test_is_the_two_sided_file_without_its_rows_at_or_below_zero(self, x):
        texts = _ccdf_texts(x)
        for side, two_sided in ccdf_texts_two_sided(x).items():
            want = _rows_above_zero(two_sided)
            assert _first_difference(texts[f"A00_{side}"], want) is None, side

    def test_exponent_form_and_no_signed_rows_on_either_side(self):
        texts = _ccdf_texts(np.array([-4e+21, -1.5e+20, -2.5, -1e-05, 0, 0,
                                      1e-05, 3, 1.5e+20, 4e+21]))
        assert texts == {
            "A00_positive": "x,ccdf\n1e-05,0.3\n3,0.2\n1.5e+20,0.1\n",
            "A00_negative": "x,ccdf\n1e-05,0.3\n2.5,0.2\n1.5e+20,0.1\n",
        }

    @pytest.mark.parametrize("x, positive, negative", [
        ([3.0, 1.0, 2.0, 1.0], "1,0.5\n2,0.25\n", ""),
        ([0.0, 2.0, -0.0, 1.0], "1,0.25\n", ""),
        ([-3.0, -1.0, -2.0, -1.0], "", "1,0.5\n2,0.25\n"),
        ([-0.0, -2.0, 0.0, -1.0], "", "1,0.25\n"),
        ([0.0, -0.0, 0.0], "", ""),
        ([7.0], "", ""),
        ([-7.0, -7.0], "", ""),
        # no negative value: the negative file must not wrap round to the 1
        ([0.0, 0.0, 1.0], "", ""),
        ([0.0, 0.0, -1.0], "", ""),
    ], ids=["positive", "positive-with-zeros", "negative", "negative-with-zeros",
            "zeros", "single", "single-tied", "zeros-then-one", "zeros-then-minus-one"])
    def test_one_signed_and_degenerate_series(self, x, positive, negative):
        texts = _ccdf_texts(np.array(x))
        assert texts == {"A00_positive": "x,ccdf\n" + positive,
                         "A00_negative": "x,ccdf\n" + negative}

    @pytest.mark.parametrize("size", [1, 2, 3000])
    def test_values_all_tied_at_the_maximum_give_the_header_alone(self, size):
        texts = _ccdf_texts(np.full(size, -0.5))
        assert texts == {"A00_positive": "x,ccdf\n", "A00_negative": "x,ccdf\n"}
