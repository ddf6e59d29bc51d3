"""Seeded input generators for the benchmark.

Every generator takes an explicit seed and returns the same bytes for the same
arguments. Nothing is downloaded. Each data set holds a fixed share of
ambiguous samples (pure background, labels dealt round-robin), so top-1 and
AURC are bounded by the data rather than by how lucky one trained model is.
"""

from __future__ import annotations

import os

import numpy as np

SENSOR = 32
EVENT_DURATION_US = 100_000
AMBIGUOUS_EVERY = 4  # one round of labels in four is ambiguous: a 25% share
SQUARE_SIDE = 10  # pixels
SQUARE_TRAVEL = 16  # one-pixel moves per stream
EVENTS_PER_PIXEL = 4
NOISE_EVENTS = 30


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, 0xBE7C])


def _ambiguous_mask(n: int, classes: int) -> np.ndarray:
    # labels are dealt round-robin; marking whole rounds keeps every class
    # equally represented among the ambiguous samples
    return ((np.arange(n) // classes) % AMBIGUOUS_EVERY) == AMBIGUOUS_EVERY - 1


# motion directions (dx, dy) per class: right, left, down, up
DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def event_stream(label: int, rng: np.random.Generator, *, ambiguous: bool) -> np.ndarray:
    """Events int64 [N,4] (t, x, y, p) of a square moving in the class direction.

    Every one-pixel move fires ON events along the leading edge and OFF events
    along the trailing edge, so one short time window already shows direction.
    Background events are scattered over the whole sensor and window; an
    ambiguous stream holds only those.
    """
    side, travel, per_pixel = SQUARE_SIDE, SQUARE_TRAVEL, EVENTS_PER_PIXEL
    dx, dy = DIRECTIONS[label]
    lo = travel if (dx < 0 or dy < 0) else 0
    hi_x = SENSOR - side - (travel if dx > 0 else 0)
    hi_y = SENSOR - side - (travel if dy > 0 else 0)
    x0 = int(rng.integers(lo if dx < 0 else 0, hi_x + 1))
    y0 = int(rng.integers(lo if dy < 0 else 0, hi_y + 1))
    rows = []
    if not ambiguous:
        step_us = EVENT_DURATION_US // travel
        edge = np.arange(side)
        for k in range(travel):
            x, y = x0 + dx * k, y0 + dy * k
            if dx:
                lead_x = x + side if dx > 0 else x - 1
                trail_x = x if dx > 0 else x + side - 1
                lead = np.stack([np.full(side, lead_x), y + edge], 1)
                trail = np.stack([np.full(side, trail_x), y + edge], 1)
            else:
                lead_y = y + side if dy > 0 else y - 1
                trail_y = y if dy > 0 else y + side - 1
                lead = np.stack([x + edge, np.full(side, lead_y)], 1)
                trail = np.stack([x + edge, np.full(side, trail_y)], 1)
            xy = np.repeat(np.concatenate([lead, trail]), per_pixel, axis=0)
            p = np.repeat([1, 0], side * per_pixel)
            t = k * step_us + rng.integers(0, step_us, len(xy))
            rows.append(np.column_stack([t, xy, p]))
    noise = np.column_stack([
        rng.integers(0, EVENT_DURATION_US, NOISE_EVENTS),
        rng.integers(0, SENSOR, (NOISE_EVENTS, 2)),
        rng.integers(0, 2, NOISE_EVENTS),
    ])
    rows.append(noise)
    ev = np.concatenate(rows).astype(np.int64)
    # pin the window so every stream spans the same duration after load_events
    ev = np.concatenate([[[0, 0, 0, 0]], ev, [[EVENT_DURATION_US, SENSOR - 1, SENSOR - 1, 0]]])
    return ev[np.argsort(ev[:, 0], kind="stable")]


def write_event_streams(directory: str, n: int, seed: int) -> tuple[list[str], np.ndarray]:
    """Write n AER text streams ("t x y p" per line); returns paths and labels."""
    rng = _rng(seed, 2)
    os.makedirs(directory, exist_ok=True)
    labels = (np.arange(n) % len(DIRECTIONS)).astype(np.int64)
    ambiguous = _ambiguous_mask(n, len(DIRECTIONS))
    paths = []
    for i in range(n):
        ev = event_stream(int(labels[i]), rng, ambiguous=bool(ambiguous[i]))
        path = os.path.join(directory, f"s{i:05d}.aer")
        with open(path, "w") as f:
            f.write("\n".join(f"{t} {x} {y} {p}" for t, x, y, p in ev.tolist()))
            f.write("\n")
        paths.append(path)
    return paths, labels
