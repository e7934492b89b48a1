"""Calibration of measured time against the speed of the machine.

The machine this benchmark runs on shares its cores, and its speed drifts
by tens of percent over a few seconds.  A fixed pure-Python loop of
modular integer arithmetic, ``ref_loop``, is run between measured calls,
never during one.  Measured time is gathered into segments of about
SEGMENT_S; the loop is sampled after each, once per SEGMENT_S of the
segment (up to MAX_BATCH times), so a long call is followed by as many
samples as the calls it could have been split into.  A segment is scaled by

    NOMINAL_REF_S / (median of its samples and the WINDOW samples on each side)

so a figure is in reference seconds: the time the work would have taken
while the loop ran at its nominal speed.  The median over a few samples
on each side follows the drift of the machine but not the spikes of
single samples.  Raw seconds are kept beside every calibrated figure.
"""

import statistics
import time

REF_ITERS = 10_000
# Median duration of one ref_loop() on the 2-core reference machine
# (Python 3.11); see README.md.
NOMINAL_REF_S = 0.0021
REF_REPEATS = 3
# Measured time after which the open segment is closed and the loop sampled.
SEGMENT_S = 0.05
# Loop samples taken on each side of a segment's own for its local speed:
# single samples jump between the machine's speed modes, so the median is
# taken over about a second of samples on either side.
WINDOW = 20
MAX_BATCH = 20


def ref_loop(n=REF_ITERS):
    x = 1
    for i in range(n):
        x = (x * 48271 + i) % 2147483647
    return x


def ref_sample():
    """Median duration of REF_REPEATS runs of the reference loop, in raw seconds."""
    durations = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        ref_loop()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


class Clock:
    """Times calls in segments, between samples of the reference loop.

    ``call`` runs one measured call.  Once SEGMENT_S of measured time is
    open, or on ``mark``, the segment is closed and the loop sampled.
    ``mark`` returns the index of the next segment, so that an interval
    of work is the range of segments between two marks; ``scales`` gives
    every segment's conversion to reference seconds once the run is over.
    Each call's raw time and segment are kept in ``calls``.
    """

    def __init__(self):
        self.ref_samples = [ref_sample()]
        self.segments = []  # (raw seconds, first and last index of its loop samples)
        self.calls = []  # (raw seconds, index of its segment)
        self._open = 0.0

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.calls.append((dt, len(self.segments)))
            self._open += dt
            if self._open >= SEGMENT_S:
                self._close()

    def _close(self):
        first = len(self.ref_samples)
        for _ in range(min(MAX_BATCH, max(1, int(self._open / SEGMENT_S)))):
            self.ref_samples.append(ref_sample())
        self.segments.append((self._open, first, len(self.ref_samples) - 1))
        self._open = 0.0

    def mark(self, resync=False):
        """Close the open segment; with ``resync``, sample the loop afresh
        first, because unmeasured work ran since the last sample."""
        if self._open:
            self._close()
        if resync:
            self.ref_samples.extend(ref_sample() for _ in range(WINDOW))
        return len(self.segments)

    def scales(self):
        out = []
        for _, first, last in self.segments:
            local = self.ref_samples[max(0, first - WINDOW): last + WINDOW + 1]
            out.append(NOMINAL_REF_S / statistics.median(local))
        return out

    def raw(self, start, stop):
        """Raw seconds of segments start..stop-1."""
        return sum(seg[0] for seg in self.segments[start:stop])

    def calibrated(self, start, stop, scales):
        """Reference seconds of segments start..stop-1."""
        return sum(seg[0] * s for seg, s in zip(self.segments[start:stop], scales[start:stop]))

    def call_times(self, start, stop, scales=None):
        """Raw seconds of calls start..stop-1, or reference seconds given scales."""
        return [raw * (scales[seg] if scales else 1.0) for raw, seg in self.calls[start:stop]]


def per_call_median(rounds):
    """Sum over call positions of the median over rounds of that call's time.

    Every round makes the same calls in the same order, so position j is the
    same work in each; a change of the machine's speed during one call of one
    round then moves one term's median, not a whole round.
    """
    return sum(statistics.median(times) for times in zip(*rounds))
