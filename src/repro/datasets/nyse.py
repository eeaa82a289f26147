"""Synthetic NYSE-like stock-quote stream.

The paper evaluates on two months of real intra-day quotes (~3000 symbols,
>24M quotes at 1 quote/minute, scraped from Google Finance) — proprietary
data we cannot ship.  This generator produces the closest synthetic
equivalent: per-symbol geometric random walks sampled at quote resolution,
with a configurable set of *leading* (blue-chip) symbols for Q1's MLE
condition.

The queries only consume ``symbol``, ``openPrice``, ``closePrice`` and the
rise/fall relation between them; a random walk gives tunable rise/fall
statistics (≈50/50, matching 1-minute real data) and therefore exercises
the identical engine code paths.  See README.md, "Scale substitutions".
"""

from __future__ import annotations

import numpy as np

from repro.events.event import Event


def symbol_names(n_symbols: int, prefix: str = "S") -> list[str]:
    """Deterministic symbol universe: ``S0000``, ``S0001``, ..."""
    return [f"{prefix}{i:04d}" for i in range(n_symbols)]


def leading_symbols(n_leading: int) -> list[str]:
    """The first ``n_leading`` symbols play the paper's 16 blue chips."""
    return symbol_names(n_leading, prefix="L")


def generate_nyse(n_events: int, n_symbols: int = 300, n_leading: int = 16,
                  seed: int = 7, volatility: float = 0.002,
                  start_price: float = 50.0,
                  quote_interval: float = 60.0,
                  unchanged_probability: float = 0.0) -> list[Event]:
    """Generate a NYSE-like stream of ``n_events`` quotes.

    Each event picks a symbol uniformly at random (leading symbols are the
    ``L````-prefixed names, the rest ``S``-prefixed) and advances that
    symbol's multiplicative random walk by one tick.  ``openPrice`` is the
    symbol's previous close, so rise/fall is well defined per quote.

    ``unchanged_probability`` is the chance a quote closes exactly where
    it opened — at 1-minute resolution a sizeable share of real quotes is
    flat, which is what lets the paper's Q1 ratio sweep reach very low
    completion probabilities.
    """
    if n_leading > n_symbols:
        raise ValueError("n_leading cannot exceed n_symbols")
    if not 0.0 <= unchanged_probability < 1.0:
        raise ValueError("unchanged_probability must be in [0, 1)")
    rng = np.random.default_rng(seed)
    names = leading_symbols(n_leading) + \
        symbol_names(n_symbols - n_leading)
    prices = np.full(n_symbols, start_price, dtype=float)

    choices = rng.integers(0, n_symbols, size=n_events)
    moves = rng.normal(loc=0.0, scale=volatility, size=n_events)
    if unchanged_probability > 0.0:
        flat = rng.random(n_events) < unchanged_probability
        moves[flat] = 0.0
    events: list[Event] = []
    step = quote_interval / max(1, n_symbols)
    for seq in range(n_events):
        index = int(choices[seq])
        open_price = prices[index]
        close_price = max(0.01, open_price * (1.0 + moves[seq]))
        prices[index] = close_price
        events.append(Event(
            seq=seq,
            etype="quote",
            timestamp=seq * step,
            attributes={
                "symbol": names[index],
                "openPrice": float(open_price),
                "closePrice": float(close_price),
                "change": float(close_price - open_price),
            },
        ))
    return events


def generate_price_walk(n_events: int, low: float = 0.0,
                        high: float = 100.0, step_scale: float = 2.0,
                        seed: int = 11, symbol: str = "PW00",
                        reversion: float = 0.0) -> list[Event]:
    """Single-series bounded price process for Q2's band pattern.

    Balkesen & Tatbul's Query 9 (the basis of Q2) observes one logical
    price series.  The walk reflects at ``low``/``high``; ``step_scale``
    controls the per-event move size and ``reversion`` adds
    Ornstein-Uhlenbeck-style pull toward the midpoint (0 = pure random
    walk).  With reversion, the price oscillates around the midpoint and
    the band half-width becomes a smooth knob for Q2's *average pattern
    size* and completion probability — exactly the role the paper's
    upper/lower limits play.
    """
    rng = np.random.default_rng(seed)
    midpoint = (low + high) / 2.0
    price = midpoint
    steps = rng.normal(loc=0.0, scale=step_scale, size=n_events)
    events: list[Event] = []
    for seq in range(n_events):
        open_price = price
        price = price + float(steps[seq]) + \
            reversion * (midpoint - price)
        # reflect into (low, high)
        while price < low or price > high:
            if price < low:
                price = 2.0 * low - price
            if price > high:
                price = 2.0 * high - price
        events.append(Event(
            seq=seq,
            etype="quote",
            timestamp=float(seq),
            attributes={
                "symbol": symbol,
                "openPrice": float(open_price),
                "closePrice": float(price),
                "change": float(price - open_price),
            },
        ))
    return events
