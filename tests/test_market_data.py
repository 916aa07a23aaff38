import datetime
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_assets, meta_csv, price_csv
from oracles import parse_price_panel_loop
from fxnet import market_data
from fxnet.market_data import (
    PanelError,
    PeggedAssetError,
    _read_prices_vectorised,
    compute_log_returns,
    parse_asset_metadata,
    parse_price_panel,
)
from fxnet.modes import select_ng
from fxnet.spectral import correlation_matrix, eigendecompose, rmt_bounds

CODES = ["AAA", "BBB", "CCC"]
DATES = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]


def simple_table(overrides=None):
    table = [
        [1.0, 2.0, 3.0],
        [1.1, 2.1, 3.1],
        [1.2, 2.2, 3.2],
        [1.3, 2.3, 3.3],
    ]
    for (r, c), v in (overrides or {}).items():
        table[r][c] = v
    return price_csv(CODES, DATES, table)


class TestParsePricePanel:
    def test_complete_panel(self):
        panel = parse_price_panel(simple_table(), meta_csv(CODES))
        assert panel.n_assets == 3
        assert panel.n_dates == 4
        assert panel.prices.shape == (3, 4)
        assert panel.prices[1, 2] == 2.2
        assert [a.code for a in panel.assets] == CODES

    def test_forward_fill_interior_gap(self):
        raw = simple_table({(2, 1): None})
        panel = parse_price_panel(raw, meta_csv(CODES))
        assert panel.n_dates == 4
        assert panel.prices[1, 2] == panel.prices[1, 1]

    def test_gap_beyond_limit_drops_dates(self):
        dates = [f"2020-01-{d:02d}" for d in range(1, 9)]
        table = [[1.0 + 0.1 * t, None if 1 <= t <= 6 else 2.0] for t in range(8)]
        raw = price_csv(["AAA", "BBB"], dates, table)
        panel = parse_price_panel(raw, meta_csv(["AAA", "BBB"]), fill_limit=2)
        # dates with gap run > 2 for BBB are dropped
        assert panel.n_dates == 4
        assert panel.prices[1, 1] == panel.prices[1, 0]

    def test_fill_never_invents_values(self):
        raw = simple_table({(1, 0): None, (2, 2): None})
        panel = parse_price_panel(raw, meta_csv(CODES))
        observed = {
            (0, 0): 1.0, (0, 2): 1.2, (0, 3): 1.3,
            (1, 0): 2.0, (1, 1): 2.1, (1, 2): 2.2, (1, 3): 2.3,
            (2, 0): 3.0, (2, 1): 3.1, (2, 3): 3.3,
        }
        for i in range(3):
            for t in range(4):
                earlier = [v for (a, tt), v in observed.items() if a == i and tt <= t]
                assert panel.prices[i, t] in earlier

    def test_zero_price_rejected(self):
        with pytest.raises(PanelError, match="non-positive"):
            parse_price_panel(simple_table({(1, 1): "0.0"}), meta_csv(CODES))

    def test_negative_price_rejected(self):
        with pytest.raises(PanelError, match="non-positive"):
            parse_price_panel(simple_table({(0, 0): "-1.5"}), meta_csv(CODES))

    def test_non_numeric_price_rejected(self):
        with pytest.raises(PanelError, match="non-numeric"):
            parse_price_panel(simple_table({(0, 0): "oops"}), meta_csv(CODES))

    def test_unknown_code_rejected(self):
        with pytest.raises(PanelError, match="unknown asset code"):
            parse_price_panel(simple_table(), meta_csv(["AAA", "BBB", "XXX"]))

    def test_duplicate_date_rejected(self):
        dates = ["2020-01-01", "2020-01-02", "2020-01-02", "2020-01-04"]
        table = [[1.0, 2.0, 3.0]] * 4
        with pytest.raises(PanelError, match="duplicate date"):
            parse_price_panel(price_csv(CODES, dates, table), meta_csv(CODES))

    def test_negative_fill_limit_rejected(self):
        raw = simple_table({(2, 1): None})
        with pytest.raises(PanelError, match="^fill_limit must be >= 0, got -1$"):
            parse_price_panel(raw, meta_csv(CODES), fill_limit=-1)

    def test_too_few_surviving_dates(self):
        dates = DATES[:3]
        table = [[1.0, None, 3.0], [1.1, None, 3.1], [1.2, None, 3.2]]
        with pytest.raises(PanelError, match="complete dates"):
            parse_price_panel(price_csv(CODES, dates, table), meta_csv(CODES))


class TestMetadata:
    @pytest.mark.parametrize(
        "row, message",
        [("1,AAA,A,upcoming,X", "metadata line 2: unknown market class 'upcoming' for AAA"),
         ("x,AAA,A,developed,X", "metadata line 2: non-integer index for AAA: 'x'")],
        ids=["market-class", "index"],
    )
    def test_bad_row_is_a_panel_error_naming_its_line(self, row, message):
        with pytest.raises(PanelError, match=f"^{message}$"):
            parse_asset_metadata(META_HEADER + row + "\n")

    def test_non_contiguous_indices_rejected(self):
        text = "index,code,name,market_class,region\n1,AAA,A,developed,X\n3,BBB,B,emerging,Y\n"
        with pytest.raises(PanelError, match="contiguous"):
            parse_asset_metadata(text)

    def test_bad_market_class_rejected(self):
        text = "index,code,name,market_class,region\n1,AAA,A,upcoming,X\n"
        with pytest.raises(PanelError, match="market class"):
            parse_asset_metadata(text)

    def test_valid_metadata(self):
        metas = parse_asset_metadata(meta_csv(CODES, ["developed", "emerging", "frontier"]))
        assert metas["BBB"].market_class == "emerging"
        assert metas["CCC"].index == 3


META_HEADER = "index,code,name,market_class,region\n"
HUGE_CELL = "1" * 131073  # one character over the csv module's default field limit


@pytest.mark.parametrize(
    "prices, meta, message",
    [
        (None, META_HEADER + "1,AAA,A\n", "metadata line 2: expected 5 fields, got 3"),
        (None, META_HEADER + f"1,AAA,{HUGE_CELL},developed,X\n",
         "metadata line 2: field larger than field limit"),
        (simple_table() + f"2020-01-05,1.4,{HUGE_CELL},3.4\n", meta_csv(CODES),
         "price table line 6: field larger than field limit"),
        ("date,AAA,BBB,CCC\n2020-01-01,1\r2,2,3\n", meta_csv(CODES),
         "price table line 2: new-line character"),
        ('date,AAA,BBB,CCC\n2020-01-01,1.0,2.0,3.0\n2020-01-02,"1.1\n",2.1,3.1\n'
         "2020-01-03,1.2,oops,3.2\n", meta_csv(CODES),
         "line 5: non-numeric price 'oops' for BBB"),
    ],
    ids=["short-metadata-row", "huge-metadata-cell", "huge-price-cell", "carriage-return",
         "quoted-line-break"],
)
def test_malformed_line_is_a_panel_error_naming_it(prices, meta, message):
    with pytest.raises(PanelError, match=message):
        if prices is None:
            parse_asset_metadata(meta)
        else:
            parse_price_panel(prices, meta)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"],
                         ids=ascii)
def test_rows_are_split_at_line_feeds_only(char):
    """A csv row ends at a line feed alone (`str.splitlines` would also
    split at these), so the cell keeps its text and later lines their
    numbers."""
    meta = META_HEADER + f"1,AAA,A{char}A,developed,X\n2,BBB,B,developed,Y\n"
    assert parse_asset_metadata(meta)["AAA"].name == f"A{char}A"
    with pytest.raises(PanelError, match="^metadata line 3: unknown market class 'upcoming'"):
        parse_asset_metadata(meta.replace("developed,Y", "upcoming,Y"))
    prices = (f'date,AAA,BBB,CCC\n2020-01-01,"1.0",2.0,3.0\n2020-01-02,{char},2.1,3.1\n'
              "2020-01-03,1.2,oops,3.2\n")
    with pytest.raises(PanelError, match="^line 4: non-numeric price 'oops' for BBB$"):
        parse_price_panel(prices, meta_csv(CODES))


@pytest.mark.parametrize("code", ["A\nB", "A\rB", "A\tB", "A\u2028B"],
                         ids=["line-feed", "carriage-return", "tab", "line-separator"])
def test_non_printable_code_is_a_panel_error_naming_its_line(code):
    meta = META_HEADER + f'1,AAA,A,developed,X\n2,"{code}",B,developed,Y\n'
    with pytest.raises(PanelError, match=r"metadata line \d+: non-printable code"):
        parse_asset_metadata(meta)


@pytest.mark.parametrize("code", ["d/e", "../../esc", "a\\b"])
def test_code_holding_a_path_separator_is_a_panel_error_naming_its_line(code):
    meta = META_HEADER + f"1,AAA,A,developed,X\n2,{code},B,developed,Y\n"
    with pytest.raises(PanelError, match=r"metadata line 3: code .* path separator"):
        parse_asset_metadata(meta)


@pytest.mark.parametrize(
    "row, message",
    [("2, ,B,developed,Y", "metadata line 3: empty asset code"),
     ("2,AAA,B,developed,Y", "metadata line 3: duplicate asset code AAA")],
    ids=["empty", "duplicate"],
)
def test_bad_metadata_code_is_a_panel_error_naming_its_line(row, message):
    with pytest.raises(PanelError, match=f"^{message}$"):
        parse_asset_metadata(META_HEADER + f"1,AAA,A,developed,X\n{row}\n")


@pytest.mark.parametrize(
    "dates, message",
    [(["2020-01-01", "2020-01-02", "2020-01-02", "2020-01-04"],
      "line 4: duplicate date 2020-01-02"),
     (["2020-01-01", "2020-01-03", "2020-01-02", "2020-01-04"],
      "line 4: dates not strictly increasing at 2020-01-02"),
     # a repeat of an earlier, non-adjacent date is out of order first
     (["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-01"],
      "line 5: dates not strictly increasing at 2020-01-01")],
    ids=["duplicate", "decreasing", "non-adjacent-repeat"],
)
def test_date_out_of_order_is_a_panel_error_naming_its_line(dates, message):
    table = [[1.0, 2.0, 3.0]] * 4
    with pytest.raises(PanelError, match=f"^{message}$"):
        parse_price_panel(price_csv(CODES, dates, table), meta_csv(CODES))


@pytest.mark.parametrize("date", ["20200101", "2020-W01-1", "2020-1-1"])
def test_only_yyyy_mm_dd_dates_are_read(date):
    # date.fromisoformat takes the first two from Python 3.11 on, not on 3.10
    table = simple_table().replace("2020-01-01", date)
    with pytest.raises(PanelError, match=f"^line 2: bad date '{date}'$"):
        parse_price_panel(table, meta_csv(CODES))


_TOKENS = st.sampled_from([
    "", " ", "0", "1", "2", "3", "-1", "1.5", "1e999", "nan", "inf", "x", '"', '""', '"a,b"',
    " 1.5", "2 ", "\t3", "1_0", "\u0661", "NaN", "-inf", "Infinity", "1e-400",
    "AAA", "BBB", "CCC", "developed", "emerging", "frontier",
    "2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04", "2020-02-30",
])


@st.composite
def csv_texts(draw, header):
    """CSV-like text: rows of parser-relevant tokens and arbitrary strings,
    usually under the expected header, with any line ending."""
    rows = draw(st.lists(st.lists(_TOKENS | st.text(max_size=6), max_size=6), max_size=8))
    if draw(st.booleans()):
        rows = [header] + rows
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(",".join(row) for row in rows) + draw(st.sampled_from(["", newline]))


_META_TEXTS = csv_texts(META_HEADER.strip().split(",")) | st.text()
_PRICE_TEXTS = csv_texts(["date", *CODES]) | st.text()


@settings(max_examples=300, deadline=None)
@given(text=_META_TEXTS)
def test_parse_asset_metadata_raises_only_panel_error(text):
    try:
        parse_asset_metadata(text)
    except PanelError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw_table=_PRICE_TEXTS, meta=st.just(meta_csv(CODES)) | _META_TEXTS,
       fill_limit=st.integers(0, 3))
def test_parse_price_panel_raises_only_panel_error(raw_table, meta, fill_limit):
    try:
        parse_price_panel(raw_table, meta, fill_limit)
    except PanelError:
        pass


# Price cells: numbers with up to 26 significant digits (some padded with
# whitespace) and blanks; and cells that one reader might take and the other not.
_NUMBERS = (
    st.floats(min_value=1e-300, max_value=1e300).map(repr)
    | st.builds("{}.{:015d}e{}".format, st.integers(0, 10**10), st.integers(0, 10**15 - 1),
                st.integers(-20, 20))
    | st.integers(1, 10**6).map(str)
)
_CELLS = st.one_of(
    _NUMBERS, _NUMBERS, _NUMBERS, st.just(""),
    st.builds("{}{}{}".format, st.sampled_from([" ", "\t", ""]), _NUMBERS,
              st.sampled_from([" ", "  ", ""])),
)
ODD_CELLS = [
    " ", "\t", "nan", "NaN", "inf", "-inf", "Infinity", "-1", "0", "0.0", "1e-400", "1e999",
    "1_0", "\u0661", "\u0661.5", "+.5", "5.", "0x10", "1.5.2", "1 5", "\x00", "1\x00", "x",
    "\u20281.5", "2\x0b", "\xa03", "0" * 131073 + "1", "\x0c", "\x1c", "\x1f", " \t ",
]
_ODD_LINES = st.sampled_from(["", ",,,", " , , , ", ",,", ",,,,", "2099-01-01,1", "2020-01-01",
                              "2099-01-01,1,2,3,4"])


@st.composite
def price_tables(draw):
    """(price table text, fill_limit): rows of numbers and blanks under the
    CODES header, with runs of blanks of fill_limit and fill_limit + 1 dates
    (leading gaps among them), and in most tables one odd cell, date or line."""
    fill_limit = draw(st.integers(0, 3))
    cells = draw(st.lists(st.lists(_CELLS, min_size=3, max_size=3), min_size=2, max_size=12))
    n_rows = len(cells)
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.integers(0, 2))
        start = draw(st.integers(0, n_rows - 1))
        for row in cells[start:start + fill_limit + draw(st.integers(0, 1))]:
            row[column] = ""
    steps = draw(st.lists(st.integers(1, 3), min_size=n_rows, max_size=n_rows))
    dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=sum(steps[:k + 1]))
             for k in range(n_rows)]
    dates = [d.isoformat() for d in dates]
    odd = draw(st.sampled_from(["none", "none", "cell", "cell", "cell", "cell", "date", "line"]))
    k = draw(st.integers(0, n_rows - 1))
    if odd == "cell":
        cells[k][draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_CELLS))
    elif odd == "date":
        dates[k] = draw(st.sampled_from(
            [f" {dates[k]} ", dates[k].replace("-", ""), dates[k - 1], "2019-12-31"]))
    lines = ["date," + ",".join(CODES)] + [",".join([d, *row]) for d, row in zip(dates, cells)]
    if odd == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(_ODD_LINES))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), fill_limit


def _parsed(parse, raw_table, fill_limit):
    """A comparable outcome of one parser: the panel, bit for bit, or the
    error's type and text."""
    try:
        panel = parse(raw_table, meta_csv(CODES), fill_limit)
    except PanelError as exc:
        return type(exc).__name__, str(exc)
    assert panel.prices.dtype == float and panel.prices.flags.c_contiguous
    return panel.dates, panel.assets, panel.prices.shape, panel.prices.tobytes()


@settings(max_examples=500, deadline=None)
@given(table=price_tables())
def test_parse_price_panel_matches_the_per_cell_loop(table):
    raw_table, fill_limit = table
    assert (_parsed(parse_price_panel, raw_table, fill_limit)
            == _parsed(parse_price_panel_loop, raw_table, fill_limit))


@pytest.mark.parametrize("cell", ODD_CELLS,
                         ids=lambda cell: ascii(cell) if len(cell) < 9 else f"{len(cell)}-chars")
def test_odd_cell_reads_as_in_the_per_cell_loop(cell):
    for table in (simple_table({(1, 0): cell}), simple_table({(1, 0): cell, (2, 0): None})):
        assert _parsed(parse_price_panel, table, 1) == _parsed(parse_price_panel_loop, table, 1)


def _gappy_table(n_rows, blank_lines):
    """A table of n_rows dates under CODES whose lines (counted from 0
    after the header) in blank_lines hold blank cells: an empty one, one of
    `\\x0c` and spaces, and one of spaces and a tab. Blank lines are as
    long as the others, so they move no chunk edge."""
    rows = [[f"{1 + k % 9}.25", f"{1 + k % 7}.50", f"{1 + k % 5}.75"] for k in range(n_rows)]
    for k in blank_lines:
        rows[k] = ["", "\x0c" + " " * 7, " \t  "]
    dates = [(datetime.date(2000, 1, 1) + datetime.timedelta(days=k)).isoformat()
             for k in range(n_rows)]
    return price_csv(CODES, dates, rows)


def _chunk_edge_lines(table):
    """The first and last line (counted from 0 after the header) of each
    chunk that the numpy reader scans."""
    lines, start = [], table.find("\n") + 1
    while start < len(table):
        stop = table.find("\n", start + market_data._CHUNK) + 1 or len(table)
        first = table.count("\n", 0, start) - 1
        lines += [first, first + table.count("\n", start, stop) - 1]
        start = stop
    return lines


@pytest.mark.parametrize(
    "table",
    [simple_table(), simple_table({(1, 0): None}), simple_table({(0, 2): None, (3, 2): None}),
     simple_table({(1, 1): None, (2, 1): None}),
     simple_table({(1, 0): " 1.5", (2, 2): "2.5e0 ", (3, 1): "\t3"}),
     simple_table({(1, 0): " "}), simple_table().replace("\n", "\r\n"),
     # blanks of every kind in a run longer than fill_limit = 2
     simple_table({(1, 1): " ", (2, 1): "\t\x0b ", (3, 1): "\x1f", (2, 2): ""}),
     simple_table({(1, 2): "\x1c", (2, 2): "", (3, 2): " "}).replace("\n", "\r\n"),
     simple_table({(3, 2): " "}).rstrip("\n"),
     simple_table({(1, 1): None, (2, 0): None}).replace(",", ", ")],
    ids=["complete", "interior-blank", "leading-and-last-blank", "run-of-two", "padded",
         "whitespace", "crlf", "blank-run", "crlf-blank-run", "no-final-line-end",
         "comma-space-padded"],
)
def test_plain_tables_are_read_by_numpy(table):
    """The differential test above only holds the numpy reader to the loop
    if tables like these reach it."""
    assert _read_prices_vectorised(table, len(CODES)) is not None
    assert _parsed(parse_price_panel, table, 2) == _parsed(parse_price_panel_loop, table, 2)


@pytest.mark.parametrize("chunk", [None, 100], ids=["real-chunk", "100-byte-chunk"])
def test_blanks_on_chunk_edges_are_read_by_numpy(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(market_data, "_CHUNK", chunk)
    n_rows = 40 if chunk else 3 * market_data._CHUNK // 25
    edges = _chunk_edge_lines(_gappy_table(n_rows, []))
    assert len(edges) >= 6  # three chunks or more
    table = _gappy_table(n_rows, edges)
    assert _chunk_edge_lines(table) == edges
    read = _read_prices_vectorised(table, len(CODES))
    assert read is not None
    assert np.isnan(read[1][edges]).all() and not np.isnan(np.delete(read[1], edges, 0)).any()
    assert _parsed(parse_price_panel, table, 2) == _parsed(parse_price_panel_loop, table, 2)


@pytest.mark.parametrize(
    "table",
    [simple_table({(1, 0): "nan"}), simple_table({(1, 0): "1e999"}),
     simple_table({(1, 0): "1_0"}),
     simple_table({(1, 0): "\u0661"}), simple_table({(1, 0): "0" * 131073 + "1"}),
     simple_table() + "2020-01-05,1,2,3,4\n",
     simple_table() + ",,,\n", simple_table().replace("2020-01-03", "2020-01-02"),
     'date,AAA,BBB,CCC\n2020-01-01,"1.0",2.0,3.0\n',
     simple_table({(1, 0): "\x00"}), simple_table({(1, 0): "\xa03"}),
     simple_table({(1, 0): "1.1\r"}).replace("\n", "\r\n")],
    ids=["nan", "inf", "underscore", "arabic-indic-digit", "over-field-limit",
         "long-row", "only-commas", "duplicate-date", "quoted", "nul", "no-break-space",
         "lone-carriage-return"],
)
def test_other_tables_are_left_to_the_per_cell_loop(table):
    assert _read_prices_vectorised(table, len(CODES)) is None
    assert _parsed(parse_price_panel, table, 2) == _parsed(parse_price_panel_loop, table, 2)


def test_parse_peak_memory_stays_near_the_table_length(rng):
    """One parse of a paper-sized table (74 assets x 6035 dates, 1 % blank
    cells) allocates at most 2.5 times the table's length at its peak: the
    numpy reader scans the table in chunks, not through masks as long as it."""
    n, n_dates = 74, 6035
    prices = np.exp(rng.normal(0, 0.01, (n_dates, n)).cumsum(axis=0))
    blank = rng.random((n_dates, n)) < 0.01
    rows = [[None if b else f"{p:.10g}" for p, b in zip(*row)] for row in zip(prices, blank)]
    codes = [f"C{j:02d}" for j in range(n)]
    dates = [(datetime.date(1995, 1, 1) + datetime.timedelta(days=k)).isoformat()
             for k in range(n_dates)]
    table, meta = price_csv(codes, dates, rows), meta_csv(codes)
    assert _read_prices_vectorised(table, n) is not None
    gc.collect()
    tracemalloc.start()
    try:
        parse_price_panel(table, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(table)


def panel_from_prices(rows):
    import datetime
    rows = np.asarray(rows, dtype=float)
    from fxnet.market_data import PricePanel
    n, td = rows.shape
    dates = tuple(datetime.date(2020, 1, 1) + datetime.timedelta(days=k) for k in range(td))
    return PricePanel(assets=make_assets(n), dates=dates, prices=rows)


class TestLogReturns:
    """Each row of the panel has unit population std; times its sigma it is
    the raw log-returns."""

    def test_constant_return_rate_triggers_peg_guard(self):
        panel = panel_from_prices([[1.0, math.e, math.e ** 2], [1.0, 2.0, 1.0]])
        with pytest.raises(PeggedAssetError, match="A00"):
            compute_log_returns(panel)

    def test_analytic_two_step(self):
        panel = panel_from_prices([[1.0, math.e, 1.0], [1.0, 2.0, 8.0]])
        rp = compute_log_returns(panel)
        assert rp.returns[0] * rp.sigma[0] == pytest.approx([1.0, -1.0], abs=1e-12)
        assert rp.sigma[0] == pytest.approx(1.0, abs=1e-12)  # population convention
        assert rp.returns.std(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_doubling_halving(self):
        panel = panel_from_prices([[2.0, 4.0, 8.0, 4.0], [1.0, 3.0, 2.0, 5.0]])
        rp = compute_log_returns(panel)
        ln2 = math.log(2.0)
        assert rp.returns[0] * rp.sigma[0] == pytest.approx([ln2, ln2, -ln2], abs=1e-12)

    def test_delta_two(self):
        panel = panel_from_prices([[1.0, 2.0, 4.0, 16.0, 8.0], [5.0, 3.0, 7.0, 2.0, 9.0]])
        rp = compute_log_returns(panel, delta=2)
        assert rp.returns.shape == (2, 2)
        assert rp.returns[0] * rp.sigma[0] == pytest.approx(
            [math.log(4.0), math.log(2.0)], abs=1e-12)

    def test_delta_validation(self):
        panel = panel_from_prices([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        with pytest.raises(PanelError):
            compute_log_returns(panel, delta=0)
        with pytest.raises(PanelError):
            compute_log_returns(panel, delta=2)  # needs 2 * delta + 1 dates

    @pytest.mark.parametrize("delta", [1, 2, 5, 20])
    def test_random_walk_has_no_group_modes(self, delta):
        """Overlapping returns would correlate successive samples and push
        eigenvalues of pure noise past the bound at Q = T/N."""
        rng = np.random.default_rng(1)
        logp = np.cumsum(rng.standard_normal((74, 6035)) * 0.01, axis=1)
        rp = compute_log_returns(panel_from_prices(np.exp(logp)), delta)
        sd = eigendecompose(correlation_matrix(rp))
        assert select_ng(sd, rmt_bounds(rp.n_assets, rp.n_steps)) == 0

    def test_round_trip_from_exp_cumsum(self, rng):
        row = rng.standard_normal(50) * 0.05
        prices = np.exp(np.concatenate([[0.0], np.cumsum(row)]))
        panel = panel_from_prices(np.vstack([prices, np.exp(rng.standard_normal(51) * 0.01)]))
        rp = compute_log_returns(panel)
        assert np.abs(rp.returns[0] * rp.sigma[0] - row).max() < 1e-12

    def test_unit_sigma_fixed_point(self):
        panel = panel_from_prices([[1.0, math.e, 1.0], [1.0, math.e ** 2, 1.0]])
        rp = compute_log_returns(panel)
        assert rp.returns[0] == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_scaling(self):
        panel = panel_from_prices([[1.0, math.e ** 2, 1.0], [1.0, math.e, 1.0]])
        rp = compute_log_returns(panel)
        assert rp.returns[0] == pytest.approx([1.0, -1.0], abs=1e-12)
        assert rp.sigma[0] == pytest.approx(2.0)

    def test_pareto_row_unit_sigma(self, rng):
        row = (1.0 - rng.random(500)) ** (-1.0 / 3.0)
        logp = np.cumsum(np.vstack([row, rng.standard_normal(500)]) * 0.01, axis=1)
        rp = compute_log_returns(panel_from_prices(np.exp(np.hstack([np.zeros((2, 1)), logp]))))
        assert abs(rp.returns[0].std() - 1.0) < 1e-9

    def test_scale_equivariance_through_pipeline(self, rng):
        logret = rng.standard_normal((2, 40)) * 0.1
        prices = np.exp(np.cumsum(np.hstack([np.zeros((2, 1)), logret]), axis=1))
        scaled = prices.copy()
        scaled[0] *= 7.5  # price rescaling must not change normalized returns
        a = compute_log_returns(panel_from_prices(prices))
        b = compute_log_returns(panel_from_prices(scaled))
        assert np.abs(a.returns[0] - b.returns[0]).max() < 1e-12
