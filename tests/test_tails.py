import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_assets
from fxnet.market_data import ReturnPanel
from fxnet.report import ccdf_files
from fxnet.tails import TailFitError, fit_tail_exponent, hill_estimate
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
    """The CCDF file text of each side of one series, as `ccdf_files` writes it
    (leaving out its claim, which has no text)."""
    rp = ReturnPanel(assets=make_assets(1), returns=np.asarray([x]), sigma=np.ones(1))
    return {rel: text for rel, text in ccdf_files(rp, "{}") if text is not None}


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

    @pytest.mark.parametrize("tail, x_min", [([2.0, 3.0], 0.0), ([2.0, 3.0], -1.0),
                                             ([2.0, 0.0], 1.0), ([2.0, -3.0], 1.0)],
                             ids=["x_min-zero", "x_min-negative", "tail-zero", "tail-negative"])
    def test_non_positive_input_rejected(self, tail, x_min):
        with pytest.raises(TailFitError, match="tail values and x_min must be positive"):
            hill_estimate(np.array(tail), x_min)

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
        assert fit == fit_tail_exponent(-samples, "positive", 0.10)
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
            with pytest.raises(ValueError, match="tail_fraction") as err:
                fit_tail_exponent(samples, "positive", frac)
            assert not isinstance(err.value, TailFitError)

    def test_unknown_side_rejected(self, rng):
        match = r"side must be one of \('positive', 'negative'\), got 'up'"
        with pytest.raises(ValueError, match=match) as err:
            fit_tail_exponent(pareto_samples(rng, 500, 3.0), side="up")
        assert not isinstance(err.value, TailFitError)

    def test_non_positive_threshold_rejected(self, rng):
        samples = np.concatenate([-np.abs(rng.standard_normal(450)), pareto_samples(rng, 50, 3.0)])
        with pytest.raises(TailFitError, match="non-positive"):
            fit_tail_exponent(samples, "positive", 0.5)

    def test_scale_invariance(self, rng):
        samples = pareto_samples(rng, 1000, 3.0)
        a1 = fit_tail_exponent(samples, "positive", 0.10).alpha
        a2 = fit_tail_exponent(samples * 42.0, "positive", 0.10).alpha
        assert a1 == pytest.approx(a2, rel=1e-12)


def _rows(text):
    """The (x, P) rows of a CCDF file's text as an array of two columns."""
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()[1:]])


class TestTailSurvival:
    """The P(X > x) column of the CCDF files."""

    def test_zeros_count_toward_p_but_print_no_row(self):
        # two of the four samples are zeros: P(X > 1) is 1/4, not 1/2
        texts = _ccdf_texts(np.array([0.0, -0.0, 1.0, 2.0]))
        assert texts == {"A00_positive": "x,ccdf\n1,0.25\n", "A00_negative": "x,ccdf\n"}
        for side in ("positive", "negative"):
            texts = [_ccdf_texts(np.array([*zeros, -2.0, -1.0, 1.0, 2.0]))[f"A00_{side}"]
                     for zeros in ([0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0])]
            assert texts == [f"x,ccdf\n1,{1 / 6:.12g}\n"] * 4, side

    def test_negative_side_negates(self, rng):
        x = rng.standard_normal(50).round(1)  # ties
        texts, negated = _ccdf_texts(x), _ccdf_texts(-x)
        assert texts["A00_positive"] == negated["A00_negative"]
        assert texts["A00_negative"] == negated["A00_positive"]

    def test_probabilities_strictly_decreasing(self, rng):
        x = rng.standard_normal(300).round(2)  # ties
        for side, tail in (("positive", x[x > 0]), ("negative", x[x < 0])):
            rows = _rows(_ccdf_texts(x)[f"A00_{side}"])
            # one row per distinct value but the largest
            assert rows.shape[0] == np.unique(tail).size - 1 < tail.size - 1, side
            assert np.all(np.diff(rows[:, 0]) > 0) and np.all(np.diff(rows[:, 1]) < 0), side
            assert np.all(rows > 0) and np.all(rows[:, 1] < 1), side

    def test_pareto_loglog_slope(self):
        rng = np.random.default_rng(4242)
        samples = pareto_samples(rng, 1000, 3.0)
        rows = _rows(_ccdf_texts(samples)["A00_positive"])
        xs, ps = rows[:, 0], rows[:, 1]
        lo, hi = np.quantile(samples, [0.90, 0.99])
        mask = (xs >= lo) & (xs <= hi)
        slope = np.polyfit(np.log(xs[mask]), np.log(ps[mask]), 1)[0]
        assert -slope == pytest.approx(3.0, abs=0.5)


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
