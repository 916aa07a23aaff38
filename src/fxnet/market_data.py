"""Price-panel ingestion, alignment and log-return computation."""

from __future__ import annotations

import csv
import datetime
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

MARKET_CLASSES = ("developed", "emerging", "frontier")

DEFAULT_FILL_LIMIT = 5
PEG_GUARD_SIGMA = 1e-10
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_CHUNK = 1 << 18  # bytes of a price table that the numpy reader scans at once


class PanelError(ValueError):
    """Malformed or inconsistent panel input."""


class PeggedAssetError(PanelError):
    """Fewer than 2 assets are left once those whose return series has (near)
    zero variance are dropped."""


@dataclass(frozen=True)
class AssetMeta:
    index: int
    code: str
    name: str
    market_class: str
    region: str


@dataclass(frozen=True)
class PricePanel:
    """Aligned positive daily rates, one row per asset, one column per date."""

    assets: tuple[AssetMeta, ...]
    dates: tuple[datetime.date, ...]
    prices: np.ndarray  # N x (T+1)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_dates(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnPanel:
    """Log-returns per asset, each row scaled to unit variance, plus the
    per-asset volatility of the raw returns and the assets left out."""

    assets: tuple[AssetMeta, ...]
    returns: np.ndarray  # N x T, rows of unit population variance
    sigma: np.ndarray  # length N, pre-normalization volatility
    dropped: tuple[tuple[str, str], ...] = ()  # (code, reason) of each asset left out

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_steps(self) -> int:
        return self.returns.shape[1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _csv_rows(text: str, table: str):
    """(line number, row) for each row of CSV `text`, numbered by the row's
    last physical line; a line the csv module cannot split (a field over its
    size limit, a carriage return inside an unquoted field) is a PanelError
    naming the line."""
    reader = csv.reader(_lines(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise PanelError(f"{table} line {reader.line_num}: {exc}") from None


def _lines(text: str):
    """The lines of `text`, each with its `\\n`: the only line end the csv
    reader needs split (`str.splitlines` also splits at `\\x0c`, `\\x1c` and
    `\\u2028`, which a quoted or unquoted cell may hold)."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _iso_date(text: str) -> datetime.date:
    """A `YYYY-MM-DD` date. date.fromisoformat alone also takes `20200101`
    and `2020-W01-1` from Python 3.11 on."""
    if _ISO_DATE.fullmatch(text) is None:
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return datetime.date.fromisoformat(text)


def parse_asset_metadata(text: str) -> dict[str, AssetMeta]:
    """Parse `index,code,name,market_class,region` rows into a code -> meta map."""
    records = _csv_rows(text, "metadata")
    expected = ["index", "code", "name", "market_class", "region"]
    _, header = next(records, (0, None))
    if header is None or [f.strip() for f in header] != expected:
        raise PanelError(f"metadata header must be {','.join(expected)!r}, got {header}")
    metas: dict[str, AssetMeta] = {}
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(expected):
            raise PanelError(
                f"metadata line {lineno}: expected {len(expected)} fields, "
                f"got {len(row)}"
            )
        raw_index, code, name, raw_class, region = row
        code = code.strip()
        if not code:
            raise PanelError(f"metadata line {lineno}: empty asset code")
        if not code.isprintable():
            raise PanelError(f"metadata line {lineno}: non-printable code {code!r}")
        if "/" in code or "\\" in code:
            raise PanelError(f"metadata line {lineno}: code {code!r} holds a path separator")
        if code in metas:
            raise PanelError(f"metadata line {lineno}: duplicate asset code {code}")
        market_class = raw_class.strip().lower()
        if market_class not in MARKET_CLASSES:
            raise PanelError(
                f"metadata line {lineno}: unknown market class {raw_class!r} for {code}"
            )
        try:
            index = int(raw_index)
        except ValueError as exc:
            raise PanelError(
                f"metadata line {lineno}: non-integer index for {code}: {raw_index!r}"
            ) from exc
        metas[code] = AssetMeta(
            index=index,
            code=code,
            name=name.strip(),
            market_class=market_class,
            region=region.strip(),
        )
    if not metas:
        raise PanelError("metadata file contains no assets")
    if sorted(m.index for m in metas.values()) != list(range(1, len(metas) + 1)):
        raise PanelError("metadata indices must be unique and contiguous from 1")
    return metas


def parse_price_panel(
    raw_table: str,
    meta: str,
    fill_limit: int = DEFAULT_FILL_LIMIT,
) -> PricePanel:
    """Parse a `date,CODE1,CODE2,...` price table against its metadata table.

    Short quote gaps are forward-filled (at most `fill_limit` consecutive rows
    per asset); dates still incomplete after filling are dropped so that the
    surviving panel stays cross-sectionally aligned.
    """
    if fill_limit < 0:
        raise PanelError(f"fill_limit must be >= 0, got {fill_limit}")
    metas = parse_asset_metadata(meta)
    records = _csv_rows(raw_table, "price table")
    _, header = next(records, (0, None))
    if header is None:
        raise PanelError("empty price table")
    if not header or header[0].strip().lower() != "date":
        raise PanelError("price table header must start with 'date'")
    codes = [c.strip() for c in header[1:]]
    if len(codes) < 2:
        raise PanelError("price table must contain at least 2 assets")
    for code in codes:
        if code not in metas:
            raise PanelError(f"unknown asset code in price table: {code}")
    if len(set(codes)) != len(codes):
        raise PanelError("duplicate asset column in price table")

    dates, values = (_read_prices_vectorised(raw_table, len(codes))
                     or _read_prices_per_cell(records, codes))
    keep = _forward_fill(values, fill_limit)
    dates = tuple(itertools.compress(dates, keep))
    if len(dates) < 3:
        raise PanelError(f"only {len(dates)} complete dates survive alignment, need >= 3")
    if len(dates) < len(keep):  # values[keep] copies even when it keeps every date
        values = values[keep]

    assets = tuple(metas[c] for c in codes)
    return PricePanel(assets=assets, dates=dates, prices=_freeze(values.T))


def _read_prices_vectorised(
    raw_table: str, n: int
) -> tuple[list[datetime.date], np.ndarray] | None:
    """The dates and the dates x n price matrix (NaN for a blank cell) of a
    price table, read by numpy's C reader; None unless the table is plain:
    ASCII, without quotes, and with a body (the lines after the header)
    that holds no `n` or `N` and no byte below `"!"` but the line end
    `\\n`. `_read_prices_per_cell` reads every other table to the same
    result and words any error.

    In a plain body every line is one csv row and every comma a delimiter,
    no cell spells nan or inf, and `_blanks_as_nan` writes each empty cell
    as `nan`, so a NaN in the matrix is a blank cell. A line over the csv
    field limit declines; underscores and short rows make numpy raise, and
    long rows fail the comma count. The body is cut into chunks of whole
    lines, and each chunk's lines go through their own `np.loadtxt` call as
    the chunk is cut, so that besides the table and the chunks' matrices
    only one chunk's text, masks and lines are held at a time, until one
    concatenation joins the matrices. A chunk that declines ends the read.
    """
    if '"' in raw_table or not raw_table.isascii():
        return None
    start = raw_table.find("\n") + 1
    if not start or raw_table.find("n", start) >= 0 or raw_table.find("N", start) >= 0:
        return None
    dates: list[datetime.date] = []
    parts: list[np.ndarray] = []
    while start < len(raw_table):
        stop = raw_table.find("\n", start + _CHUNK) + 1 or len(raw_table)
        read = _blanks_as_nan(raw_table[start:stop])
        start = stop
        if read is None:
            return None
        text, commas = read
        lines = list(filter(None, text.split("\n")))  # the csv reader skips empty lines
        if not lines:
            continue
        if commas != n * len(lines):
            return None
        try:
            dates.extend(_iso_date(line.partition(",")[0]) for line in lines)
            part = np.loadtxt(lines, delimiter=",", usecols=range(1, n + 1), comments=None,
                              ndmin=2)
        except ValueError:
            return None
        if not np.all(np.isnan(part) | ((part > 0) & (part < np.inf))):
            return None
        parts.append(part)
    if not parts or any(later <= earlier for earlier, later in zip(dates, dates[1:])):
        return None
    return dates, np.concatenate(parts)


def _blanks_as_nan(chunk: str) -> tuple[str, int] | None:
    """`chunk`, whole lines of an ASCII price table, with each empty cell
    after a comma written as `nan`, and its number of commas; None if it
    holds a line longer than the csv field limit or a byte below `"!"` other
    than the line end `\\n`."""
    if not chunk.endswith("\n"):
        chunk += "\n"
    b = np.frombuffer(chunk.encode("ascii"), np.uint8)
    comma = b == ord(",")
    newline = b == ord("\n")
    ends = np.flatnonzero(newline)
    if (np.count_nonzero(b <= ord(" ")) != len(ends)
            or np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit()):
        return None
    # a blank cell is a comma and then a comma or a line end
    cuts = [0, *(np.flatnonzero(comma[:-1] & (comma | newline)[1:]) + 1).tolist(), len(chunk)]
    return "nan".join([chunk[i:j] for i, j in zip(cuts, cuts[1:])]), np.count_nonzero(comma)


def _read_prices_per_cell(
    records, codes: list[str]
) -> tuple[list[datetime.date], np.ndarray]:
    """The dates and the dates x assets price matrix (NaN for a blank cell)
    of the price table's remaining csv `records`, checked cell by cell."""
    n = len(codes)
    dates: list[datetime.date] = []
    rows: list[list[float]] = []

    for lineno, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != n + 1:
            raise PanelError(f"line {lineno}: expected {n + 1} fields, got {len(row)}")
        try:
            date = _iso_date(row[0].strip())
        except ValueError as exc:
            raise PanelError(f"line {lineno}: bad date {row[0]!r}") from exc
        if dates and date <= dates[-1]:
            problem = "duplicate date" if date == dates[-1] else "dates not strictly increasing at"
            raise PanelError(f"line {lineno}: {problem} {date.isoformat()}")

        values: list[float] = []
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    price = float(cell)
                except ValueError as exc:
                    raise PanelError(
                        f"line {lineno}: non-numeric price {cell!r} for {codes[j]}"
                    ) from exc
                if not math.isfinite(price) or price <= 0:
                    raise PanelError(
                        f"line {lineno}: non-positive price {cell!r} for {codes[j]}"
                    )
                values.append(price)
            else:
                values.append(math.nan)
        dates.append(date)
        rows.append(values)
    return dates, np.array(rows, dtype=float).reshape(len(rows), n)


def _forward_fill(values: np.ndarray, fill_limit: int) -> np.ndarray:
    """Fill each blank (NaN) cell of the dates x assets `values` in place
    from the row above its run of blanks in its column (-1, the bottom row,
    if none); return the mask of dates whose every blank has a price at
    most `fill_limit` dates above it, counting dates that will be dropped."""
    cols, rows = np.nonzero(np.isnan(values).T)  # column by column, top down
    # a run of blanks ends where the column changes or a row is skipped
    starts = np.flatnonzero(np.diff(cols * (len(values) + 1) + rows, prepend=-2) != 1)
    source = np.repeat(rows[starts] - 1, np.diff(starts, append=len(rows)))
    values[rows, cols] = values[source, cols]
    keep = np.ones(len(values), dtype=bool)
    keep[rows[(source < 0) | (rows - source > fill_limit)]] = False
    return keep


def compute_log_returns(panel: PricePanel, delta: int = 1) -> ReturnPanel:
    """Log-returns between every delta-th price, so that spans do not overlap
    (the random-spectrum bounds at Q = T/N assume independent returns), each
    row divided by its volatility sigma, which is kept; sigma is the
    population standard deviation (divide by T). An asset pegged over the
    whole window (sigma < PEG_GUARD_SIGMA) is dropped, and recorded, while at
    least 2 assets remain."""
    if delta < 1:
        raise PanelError(f"delta must be >= 1, got {delta}")
    if panel.n_dates < 2 * delta + 1:
        raise PanelError(
            f"panel has {panel.n_dates} dates, need at least {2 * delta + 1} for delta={delta}"
        )
    returns = np.diff(np.log(panel.prices[:, ::delta]), axis=1)
    sigma = returns.std(axis=1)
    kept = sigma >= PEG_GUARD_SIGMA
    reason = f"near-constant return series (sigma < {PEG_GUARD_SIGMA:g})"
    pegged = [a.code for a, k in zip(panel.assets, kept) if not k]
    if pegged:
        if kept.sum() < 2:
            raise PeggedAssetError(f"{reason} for: {', '.join(pegged)}")
        returns, sigma = returns[kept], sigma[kept]
    returns /= sigma[:, None]
    return ReturnPanel(
        assets=tuple(itertools.compress(panel.assets, kept)),
        returns=_freeze(returns),
        sigma=_freeze(sigma),
        dropped=tuple((code, reason) for code in pegged),
    )
