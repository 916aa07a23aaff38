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
# which bytes below "!" str.strip removes; the others are control bytes
_STRIP_WHITESPACE = np.array([chr(c).isspace() for c in range(ord(" ") + 1)])
_CHUNK = 1 << 18  # bytes of a price table that the numpy reader scans at once


class PanelError(ValueError):
    """Malformed or inconsistent panel input."""


class PeggedAssetError(PanelError):
    """An asset's return series has (near) zero variance."""


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
    per-asset volatility of the raw returns."""

    assets: tuple[AssetMeta, ...]
    returns: np.ndarray  # N x T, rows of unit population variance
    sigma: np.ndarray  # length N, pre-normalization volatility

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
    indices: list[int] = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) < len(expected):
            raise PanelError(
                f"metadata line {lineno}: expected {len(expected)} fields, "
                f"got {len(row)}"
            )
        raw_index, code, name, raw_class, region = row[: len(expected)]
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
        indices.append(index)
        metas[code] = AssetMeta(
            index=index,
            code=code,
            name=name.strip(),
            market_class=market_class,
            region=region.strip(),
        )
    if not metas:
        raise PanelError("metadata file contains no assets")
    if sorted(indices) != list(range(1, len(indices) + 1)):
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

    table = _read_prices_vectorised(raw_table, len(codes))
    if table is None:
        table = _read_prices_per_cell(records, codes)
    dates, values = table
    keep = _forward_fill(values, fill_limit)
    dates = tuple(itertools.compress(dates, keep))
    if len(dates) < 3:
        raise PanelError(f"only {len(dates)} complete dates survive alignment, need >= 3")

    assets = tuple(metas[c] for c in codes)
    return PricePanel(assets=assets, dates=dates, prices=_freeze(values[keep].T))


def _read_prices_vectorised(
    raw_table: str, n: int
) -> tuple[list[datetime.date], np.ndarray] | None:
    """The dates and the dates x n price matrix (NaN for a blank cell) of a
    price table, read by numpy's C reader; None unless the table is one that
    `_read_prices_per_cell` reads to the same result, which then reads it
    and words any error.

    Without quotes every line is one csv row and every comma a delimiter;
    `\\r\\n` line ends are read as `\\n`, and a lone `\\r` declines. Without
    `n` or `N` no cell spells nan or inf, and `_blanks_as_nan` writes each
    empty or whitespace-only cell as `nan`, so a NaN in the matrix is a
    blank cell. Non-ASCII text, control bytes and a line over the csv field
    limit decline; underscores and short rows make numpy raise, and long
    rows fail the comma count. The body is read in chunks of whole lines,
    so that no mask as long as the table is made.
    """
    if '"' in raw_table or not raw_table.isascii():
        return None
    crlf = "\r" in raw_table
    if crlf and raw_table.count("\r") != raw_table.count("\r\n"):
        return None
    start = raw_table.find("\n") + 1
    if not start or raw_table.find("n", start) >= 0 or raw_table.find("N", start) >= 0:
        return None
    field_limit = csv.field_size_limit()
    lines: list[str] = []
    n_commas = 0
    while start < len(raw_table):
        stop = raw_table.find("\n", start + _CHUNK) + 1 or len(raw_table)
        chunk = raw_table[start:stop]
        start = stop
        if crlf:
            chunk = chunk.replace("\r\n", "\n")
        read = _blanks_as_nan(chunk, field_limit)
        if read is None:
            return None
        text, commas = read
        n_commas += commas
        lines += filter(None, text.split("\n"))  # the csv reader skips empty lines
    if not lines or n_commas != n * len(lines):
        return None
    try:
        dates = [_iso_date(line.partition(",")[0].strip()) for line in lines]
    except ValueError:
        return None
    if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=range(1, n + 1),
                            comments=None, ndmin=2)
    except ValueError:
        return None
    blank = np.isnan(values)
    if len(values) != len(dates) or not np.all(blank | ((values > 0) & (values < np.inf))):
        return None
    return dates, values


def _blanks_as_nan(chunk: str, field_limit: int) -> tuple[str, int] | None:
    """`chunk`, whole lines of an ASCII price table without `\\r`, with each
    cell after a comma that is empty or holds only whitespace written as
    `nan`, and its number of commas; None if it holds a line longer than
    `field_limit` or a control byte other than whitespace (numpy's reader
    is not asked to treat `\\x00` as the csv reader does)."""
    if not chunk.endswith("\n"):
        chunk += "\n"
    b = np.frombuffer(chunk.encode("ascii"), np.uint8)
    comma = b == ord(",")
    newline = b == ord("\n")
    ends = np.flatnonzero(newline)
    if np.diff(ends, prepend=-1).max() - 1 > field_limit:
        return None
    low = b <= ord(" ")
    if np.count_nonzero(low) == len(ends):
        # no byte below "!" but line ends: a blank cell is a comma and then
        # a comma or a line end
        starts = stops = np.flatnonzero(comma[:-1] & (comma | newline)[1:]) + 1
    elif _STRIP_WHITESPACE[b[low]].all():
        seps = np.flatnonzero(comma | newline)
        # whether [seps[k], seps[k + 1]) holds a byte that is not whitespace
        filled = np.logical_or.reduceat(~low & ~comma, seps)
        blank = np.flatnonzero(comma[seps] & ~filled)
        starts, stops = seps[blank] + 1, seps[blank + 1]
    else:
        return None
    cuts = iter([0, *np.column_stack((starts, stops)).ravel().tolist(), len(chunk)])
    return "nan".join([chunk[i:j] for i, j in zip(cuts, cuts)]), np.count_nonzero(comma)


def _read_prices_per_cell(
    records, codes: list[str]
) -> tuple[list[datetime.date], np.ndarray]:
    """The dates and the dates x assets price matrix (NaN for a blank cell)
    of the price table's remaining csv `records`, checked cell by cell."""
    n = len(codes)
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    prev_date: datetime.date | None = None

    for lineno, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != n + 1:
            raise PanelError(f"line {lineno}: expected {n + 1} fields, got {len(row)}")
        try:
            date = _iso_date(row[0].strip())
        except ValueError as exc:
            raise PanelError(f"line {lineno}: bad date {row[0]!r}") from exc
        if prev_date is not None and date <= prev_date:
            problem = "duplicate date" if date == prev_date else "dates not strictly increasing at"
            raise PanelError(f"line {lineno}: {problem} {date.isoformat()}")
        prev_date = date

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
    from the last observed price above it, if that is at most `fill_limit`
    dates back, counting dates that will be dropped; return the mask of
    dates left complete."""
    blank = np.isnan(values)
    if not blank.any():
        return np.ones(len(values), dtype=bool)
    t = np.arange(len(values))[:, None]
    last = np.maximum.accumulate(np.where(blank, -1, t), axis=0)
    fillable = (last >= 0) & (t - last <= fill_limit)
    # a cell with nothing observed above it (last == -1) reads the bottom
    # row here, but is not fillable, so its date is dropped
    values[blank] = np.take_along_axis(values, last, axis=0)[blank]
    return fillable.all(axis=1)


def compute_log_returns(panel: PricePanel, delta: int = 1) -> ReturnPanel:
    """Log-returns between every delta-th price, so that spans do not overlap
    (the random-spectrum bounds at Q = T/N assume independent returns), each
    row divided by its volatility sigma, which is kept; sigma is the
    population standard deviation (divide by T)."""
    if delta < 1:
        raise PanelError(f"delta must be >= 1, got {delta}")
    if panel.n_dates < 2 * delta + 1:
        raise PanelError(
            f"panel has {panel.n_dates} dates, need at least {2 * delta + 1} for delta={delta}"
        )
    returns = np.diff(np.log(panel.prices[:, ::delta]), axis=1)
    sigma = returns.std(axis=1)
    pegged = np.flatnonzero(sigma < PEG_GUARD_SIGMA)
    if pegged.size:
        codes = ", ".join(panel.assets[i].code for i in pegged)
        raise PeggedAssetError(
            f"near-constant return series (sigma < {PEG_GUARD_SIGMA:g}) for: {codes}"
        )
    return ReturnPanel(
        assets=panel.assets,
        returns=_freeze(returns / sigma[:, None]),
        sigma=_freeze(sigma),
    )
