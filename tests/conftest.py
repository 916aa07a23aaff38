import numpy as np
import pytest

from fxnet.market_data import AssetMeta, ReturnPanel


def make_assets(n, market_class="developed"):
    return tuple(
        AssetMeta(index=i + 1, code=f"A{i:02d}", name=f"Asset {i}",
                  market_class=market_class, region="Test")
        for i in range(n)
    )


def panel_from_returns(returns):
    """Wrap a raw N x T return matrix in a ReturnPanel, as compute_log_returns
    does: each row divided by its population standard deviation, kept as sigma."""
    returns = np.asarray(returns, dtype=float)
    sigma = returns.std(axis=1)
    return ReturnPanel(
        assets=make_assets(returns.shape[0]),
        returns=returns / sigma[:, None],
        sigma=sigma,
    )


def normalized_noise_panel(rng, n, t):
    """Standard-normal panel, normalized row-wise."""
    return panel_from_returns(rng.standard_normal((n, t)))


def planted_group_panel(rng, n=40, t=4000, group_size=15,
                        global_loading=0.6, group_loading=0.4, noise_std=0.3):
    """Factor panel: one global factor for everyone plus two group factors.

    The first 2 * group_size assets split into two groups; the rest carry only
    the global factor (so the group indicator patterns stay linearly
    independent of the global one and three modes separate from the bulk).
    Returns (normalized panel, labels) with label -1 for ungrouped.
    """
    f = rng.standard_normal(t)
    g = rng.standard_normal((2, t))
    eps = rng.standard_normal((n, t))
    labels = np.full(n, -1)
    labels[:group_size] = 0
    labels[group_size: 2 * group_size] = 1
    rows = np.empty((n, t))
    for i in range(n):
        rows[i] = global_loading * f + noise_std * eps[i]
        if labels[i] >= 0:
            rows[i] += group_loading * g[labels[i]]
    return panel_from_returns(rows), labels


def price_csv(codes, dates, table):
    """Build a price-table CSV string; None cells become empty fields."""
    lines = ["date," + ",".join(codes)]
    for date, row in zip(dates, table):
        cells = ["" if v is None else str(v) for v in row]
        lines.append(date + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def meta_csv(codes, market_classes=None):
    lines = ["index,code,name,market_class,region"]
    for i, code in enumerate(codes):
        mc = market_classes[i] if market_classes else "developed"
        lines.append(f"{i + 1},{code},{code} name,{mc},Test")
    return "\n".join(lines) + "\n"


def paper_shaped_table(rng, blank_frac=0.0):
    """(price table, metadata) CSV text of the paper's shape: 74 random-walk
    rates printed with 10 significant digits over 6035 days, each cell blank
    with probability blank_frac."""
    return random_walk_table(rng, 74, 6035, blank_frac)


def random_walk_table(rng, n, n_dates, blank_frac=0.0, outages=0):
    """(price table, metadata) CSV text of n random-walk rates printed with
    10 significant digits over n_dates days, each cell blank with
    probability blank_frac, plus `outages` runs of 6 to 9 blank days in one
    column each: longer than the default fill limit, so their days drop."""
    import datetime

    prices = np.exp(rng.normal(0, 0.01, (n_dates, n)).cumsum(axis=0))
    blank = rng.random((n_dates, n)) < blank_frac
    for _ in range(outages):
        start = rng.integers(1, n_dates - 9)
        blank[start:start + rng.integers(6, 10), rng.integers(n)] = True
    rows = [[None if b else f"{p:.10g}" for p, b in zip(*row)] for row in zip(prices, blank)]
    codes = [f"C{j:02d}" for j in range(n)]
    dates = [(datetime.date(1995, 1, 1) + datetime.timedelta(days=k)).isoformat()
             for k in range(n_dates)]
    return price_csv(codes, dates, rows), meta_csv(codes)


def synthetic_price_files(tmp_path, n_assets=4, n_dates=600, seed=7):
    """Write a random-walk price CSV and matching metadata; return the paths."""
    import datetime

    rng = np.random.default_rng(seed)
    codes = [f"C{i:02d}" for i in range(n_assets)]
    start = datetime.date(2019, 1, 1)
    dates = [(start + datetime.timedelta(days=k)).isoformat() for k in range(n_dates)]
    logp = np.cumsum(rng.standard_normal((n_dates, n_assets)) * 0.01, axis=0)
    prices = np.exp(logp)
    table = [[f"{p:.8f}" for p in row] for row in prices]
    prices_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "meta.csv"
    prices_path.write_text(price_csv(codes, dates, table), encoding="utf-8")
    classes = ["developed", "emerging", "frontier"]
    meta_path.write_text(
        meta_csv(codes, [classes[i % 3] for i in range(n_assets)]), encoding="utf-8"
    )
    return str(prices_path), str(meta_path)


def planted_price_files(tmp_path, seed=606, **kwargs):
    """Write price files whose log-returns reproduce a planted-group panel."""
    import datetime

    rng = np.random.default_rng(seed)
    rp, labels = planted_group_panel(rng, **kwargs)
    raw = rp.returns * rp.sigma[:, None]  # undo normalization
    logp = np.concatenate(
        [np.zeros((rp.n_assets, 1)), np.cumsum(raw * 0.01, axis=1)], axis=1
    )
    prices = np.exp(logp)
    codes = [f"C{i:02d}" for i in range(rp.n_assets)]
    start = datetime.date(2015, 1, 1)
    n_dates = prices.shape[1]
    dates = [(start + datetime.timedelta(days=k)).isoformat() for k in range(n_dates)]
    table = [[f"{prices[i, k]:.12g}" for i in range(rp.n_assets)]
             for k in range(n_dates)]
    prices_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "meta.csv"
    prices_path.write_text(price_csv(codes, dates, table), encoding="utf-8")
    meta_path.write_text(meta_csv(codes), encoding="utf-8")
    return str(prices_path), str(meta_path), labels


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
