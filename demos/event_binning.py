"""Load an address-event stream and bin it into frame tensors.

Event cameras emit (timestamp, x, y, polarity) tuples. To feed them to the
network we split the recording into equal-duration windows and accumulate
per-polarity counts into [T, 2, H, W] frames. This script writes a tiny
stream, bins it at two temporal resolutions, and prints the frames.

Run from the repository root:

    PYTHONPATH=src python3 demos/event_binning.py
"""

import os
import tempfile

from tksnn import bin_events, load_events

STREAM = """\
0    0 0 1
120  1 0 1
480  1 1 0
510  0 1 1
900  2 2 0
1000 2 2 1
"""
SENSOR = (3, 3)  # width, height: the caller's to know, load_events does not infer it


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.txt")
        with open(path, "w") as f:
            f.write(STREAM)
        stream = load_events(path)

    print(f"{len(stream.events)} events over {stream.duration} us, "
          f"sensor {SENSOR[0]}x{SENSOR[1]}")

    for t_len in (2, 4):
        frames = bin_events(stream, t_len=t_len, width=SENSOR[0], height=SENSOR[1])
        print(f"\nbinned into {t_len} windows (events per window: "
              f"{[int(frames[t].sum()) for t in range(t_len)]})")
        for t in range(t_len):
            on, off = frames[t, 1], frames[t, 0]
            print(f"  window {t}: on-events\n{on}\n  off-events\n{off}")
        assert frames.sum() == len(stream.events)  # no event is lost


if __name__ == "__main__":
    main()
