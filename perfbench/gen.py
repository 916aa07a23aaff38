"""Seeded input generator for the benchmark.

    python3 perfbench/gen.py --workload paper --seed 1 --out DIR

writes DIR/prices.csv, DIR/meta.csv and DIR/truth.json.  Returns follow a
factor model: one global factor for every asset, a few planted regional
groups (with some assets left ungrouped, so that the group loadings stay
independent of the global one) and unit-variance Student-t(3) noise.  The
`stages` workload also blanks ~1 % of the cells in short runs and plants
outages longer than the forward-fill limit, so that some dates drop.

truth.json records the planted groups, the dates that must drop and the
number of cells that must be forward-filled.  The drop rule is simulated
here independently of fxnet: a blank cell is filled if it is at most
FILL_LIMIT rows into its run of blanks; a date survives only if every
cell is observed or filled.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import zlib

import numpy as np

from spec import FILL_LIMIT, WORKLOADS

T_DOF = 3.0
START = datetime.date(1990, 1, 1)
MARKET_CLASSES = ("developed", "emerging", "frontier")


def factor_returns(rng: np.random.Generator, n: int, t: int, n_groups: int):
    """N x T unit-variance returns and the group label of each asset (-1: none)."""
    labels = np.full(n, -1)
    n_grouped = int(round(0.6 * n))
    labels[:n_grouped] = np.arange(n_grouped) % n_groups
    labels = rng.permutation(labels)
    b = rng.uniform(0.3, 0.6, n)  # global loading
    g = np.where(labels >= 0, rng.uniform(0.5, 0.65, n), 0.0)  # group loading
    s = np.sqrt(1.0 - b**2 - g**2)
    f = rng.standard_normal(t)
    h = rng.standard_normal((n_groups, t))
    eps = rng.standard_t(T_DOF, (n, t)) / np.sqrt(T_DOF / (T_DOF - 2.0))
    r = b[:, None] * f + s[:, None] * eps
    grouped = labels >= 0
    r[grouped] += g[grouped, None] * h[labels[grouped]]
    return r, labels


def blank_mask(rng: np.random.Generator, n: int, n_dates: int, frac: float,
               outages: int) -> np.ndarray:
    """Dates x assets mask of blank cells: short runs plus long outages.

    Row 0 is never blank, so every later blank has a value to fill from.
    """
    mask = np.zeros((n_dates, n), dtype=bool)
    if frac > 0:
        target = int(frac * n * n_dates)
        while mask.sum() < target:
            j = rng.integers(n)
            start = rng.integers(1, n_dates)
            mask[start:start + rng.integers(1, 4), j] = True
    for _ in range(outages):
        j = rng.integers(n)
        length = FILL_LIMIT + int(rng.integers(1, 5))
        start = rng.integers(1, n_dates - length)
        mask[start:start + length, j] = True
    return mask


def surviving_dates(mask: np.ndarray, fill_limit: int = FILL_LIMIT) -> np.ndarray:
    """Boolean per date: True if every blank cell on it can be forward-filled."""
    run = np.zeros(mask.shape[1], dtype=int)
    keep = np.ones(mask.shape[0], dtype=bool)
    for k, row in enumerate(mask):
        run = np.where(row, run + 1, 0)
        keep[k] = not np.any(run > fill_limit)
    return keep


def generate(workload: str, seed: int) -> tuple[str, str, dict]:
    """Price CSV text, metadata CSV text and the ground truth."""
    w = WORKLOADS[workload]
    n, n_dates = w["n_assets"], w["n_dates"]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    r, labels = factor_returns(rng, n, n_dates - 1, w["n_groups"])
    vol = rng.uniform(0.003, 0.012, n)
    logp = np.log(rng.uniform(0.5, 200.0, n))[:, None] + np.concatenate(
        [np.zeros((n, 1)), np.cumsum(vol[:, None] * r, axis=1)], axis=1
    )
    prices = np.exp(logp).T  # dates x assets
    mask = blank_mask(rng, n, n_dates, w["blank_frac"], w["outages"])
    keep = surviving_dates(mask)

    codes = [f"X{i:03d}" for i in range(n)]
    dates = [(START + datetime.timedelta(days=k)).isoformat() for k in range(n_dates)]
    lines = ["date," + ",".join(codes)]
    for k in range(n_dates):
        cells = ["" if blank else f"{p:.10g}" for p, blank in zip(prices[k], mask[k])]
        lines.append(dates[k] + "," + ",".join(cells))
    prices_csv = "\n".join(lines) + "\n"

    classes = rng.integers(len(MARKET_CLASSES), size=n)
    meta = ["index,code,name,market_class,region"]
    for i, code in enumerate(codes):
        region = f"R{labels[i] + 1}" if labels[i] >= 0 else "Other"
        meta.append(f"{i + 1},{code},Asset {code},{MARKET_CLASSES[classes[i]]},{region}")
    meta_csv = "\n".join(meta) + "\n"

    truth = {
        "workload": workload,
        "seed": seed,
        "n_assets": n,
        "n_dates_raw": n_dates,
        "n_groups": w["n_groups"],
        "groups": [[codes[i] for i in np.flatnonzero(labels == k)]
                   for k in range(w["n_groups"])],
        "blank_cells": int(mask.sum()),
        "dropped_dates": [dates[k] for k in np.flatnonzero(~keep)],
        "n_dates": int(keep.sum()),
        "cells_filled": int(mask[keep].sum()),
    }
    return prices_csv, meta_csv, truth


def write_inputs(workload: str, seed: int, out: str) -> None:
    prices_csv, meta_csv, truth = generate(workload, seed)
    os.makedirs(out, exist_ok=True)
    for name, text in (("prices.csv", prices_csv), ("meta.csv", meta_csv),
                       ("truth.json", json.dumps(truth, indent=1) + "\n")):
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
