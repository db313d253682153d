"""Spike detection and inter-spike statistics.

Detection rule: a spike is a strict local maximum whose value exceeds the
threshold, with plateaus collapsing to their first sample and endpoints
never counting. Surviving candidates are pruned greedily, highest amplitude
first (earlier time wins ties), so that no two retained peaks are closer
than the minimum peak distance. ``detect_spikes`` is the fast vectorised
path; ``detect_spikes_naive`` re-derives the same contract by exhaustive
scanning and repeated global-maximum selection and exists purely as an
independent cross-check.

The fast path prunes in rounds rather than one candidate at a time. Each
candidate conflicts with those less than the minimum distance away (a
``searchsorted`` time window). A round keeps every undecided candidate that
outranks, by amplitude and then by earlier time, all undecided candidates
in its window, and drops every candidate in a new keeper's window; that is
exactly what the greedy visit would keep and drop. Noisy traces are decided
in a few rounds. When a round decides fewer than half of the candidates
still open, as on a long amplitude ramp or a run of equal amplitudes, the
rest go through the one-at-a-time greedy loop instead.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _csvio, _kernels
from .config import SpikeDetectionConfig  # re-exported; defined in config
from .errors import ValidationError
from .signals import TimeSeries

#: Reference spike characteristics bundled with the toolkit: label, spike
#: count, mean inter-spike interval (s) and spiking frequency (mHz), as
#: measured at a 0.0005 uA threshold with a 5 s minimum peak distance.
REFERENCE_SPIKE_TABLE = (
    ("L-Glu:L-Asp", 726, 22.24, 44.97),
    ("L-Glu:L-Asp:L-Phe", 359, 50.48, 19.80),
    ("L-Lys:L-Phe:L-Glu", 210, 85.75, 11.66),
    ("L-Glu:L-Phe:L-His", 382, 42.21, 23.69),
    ("L-Glu:L-Phe:PLLA", 555, 32.71, 30.57),
    ("L-Lys:L-Phe:L-His:PLLA", 195, 77.29, 12.94),
    ("L-Glu:L-Arg", 29, 544.68, 48.28),
    ("L-Asp", 779, 20.71, 36.26),
    ("L-Phe:L-Lys", 28, 666.11, 1.50),
    ("L-Glu:L-Asp:L-Pro", 8, 2541.00, 0.39),
    ("L-Phe", 900, 12.32, 81.15),
    ("L-Glu:L-Phe", 12, 1412.55, 0.71),
)

#: Labels of reference rows whose frequency column disagrees with
#: 1000 / mean ISI; they are kept in the table but excluded from
#: consistency checks.
INCONSISTENT_REFERENCE_ROWS = frozenset({"L-Glu:L-Arg", "L-Asp"})


@dataclass(eq=False)
class SpikeTrain:
    spike_times: np.ndarray
    spike_amplitudes: np.ndarray
    duration: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.spike_times, dtype=np.float64)
        a = np.asarray(self.spike_amplitudes, dtype=np.float64)
        if t.size != a.size:
            raise ValidationError("spike_times and spike_amplitudes differ in length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValidationError("spike_times must be strictly increasing")
        self.spike_times = t
        self.spike_amplitudes = a

    def __len__(self):
        return self.spike_times.size


@dataclass(frozen=True)
class SpikeStats:
    """Count, mean ISI and frequency; ISI and frequency are None when count < 2."""

    count: int
    mean_isi: Optional[float]
    frequency: Optional[float]
    duration: float


def detect_spikes(series: TimeSeries, config: SpikeDetectionConfig) -> SpikeTrain:
    """Detect spikes per the threshold + minimum-peak-distance rule."""
    idx = _kernels.local_maxima(series.values)
    idx = idx[series.values[idx] > config.threshold]
    t = series.times[idx]
    a = series.values[idx]
    kept = _kernels.prune_min_distance(t, a, config.min_peak_distance)
    train = SpikeTrain(t[kept], a[kept], duration=series.duration)
    _check_train_valid(train, config)
    return train


def detect_spikes_naive(series: TimeSeries, config: SpikeDetectionConfig) -> SpikeTrain:
    """O(n^2) oracle with the same contract as :func:`detect_spikes`."""
    t = series.times
    v = series.values
    n = len(v)
    candidates = []
    for i in range(1, n - 1):
        if v[i] <= v[i - 1]:
            continue
        # Walk over a possible plateau; i must be its first sample.
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        if j + 1 < n and v[j + 1] < v[i] and v[i] > config.threshold:
            candidates.append(i)
    kept = []
    remaining = list(candidates)
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if v[i] > v[best]:
                best = i
        kept.append(best)
        remaining = [i for i in remaining
                     if abs(t[i] - t[best]) >= config.min_peak_distance and i != best]
    kept.sort()
    idx = np.array(kept, dtype=np.int64)
    return SpikeTrain(t[idx], v[idx], duration=series.duration)


def _check_train_valid(train: SpikeTrain, config: SpikeDetectionConfig) -> None:
    """Raise ValidationError naming the first spike that breaks the detection rule."""
    low = np.flatnonzero(~(train.spike_amplitudes > config.threshold))
    if low.size:
        i = int(low[0])
        raise ValidationError(
            f"spike {i}: amplitude {train.spike_amplitudes[i]:.9g} is not above "
            f"the threshold {config.threshold:.9g}")
    close = np.flatnonzero(~(np.diff(train.spike_times) >= config.min_peak_distance))
    if close.size:
        i = int(close[0]) + 1
        raise ValidationError(
            f"spike {i}: {train.spike_times[i] - train.spike_times[i - 1]:.9g} s after "
            f"spike {i - 1}, closer than the minimum peak distance "
            f"{config.min_peak_distance:.9g} s")


def compute_stats(train: SpikeTrain) -> SpikeStats:
    """Count, mean of consecutive time differences, and 1000/mean ISI in mHz."""
    count = len(train)
    if count < 2:
        return SpikeStats(count=count, mean_isi=None, frequency=None,
                          duration=train.duration)
    mean_isi = float(np.mean(np.diff(train.spike_times)))
    return SpikeStats(count=count, mean_isi=mean_isi, frequency=1000.0 / mean_isi,
                      duration=train.duration)


def aggregate_stats(stats_list) -> tuple[float, Optional[float]]:
    """Arithmetic means of per-sample count and per-sample mean ISI.

    Samples without a defined mean ISI (fewer than two spikes) contribute to
    the count mean only; the ISI mean is None if no sample defines one.
    """
    stats_list = list(stats_list)
    if not stats_list:
        raise ValidationError("aggregate_stats needs at least one sample")
    mean_count = float(np.mean([s.count for s in stats_list]))
    isis = [s.mean_isi for s in stats_list if s.mean_isi is not None]
    mean_isi = float(np.mean(isis)) if isis else None
    return mean_count, mean_isi


def write_spiketrain_csv(train: SpikeTrain, path) -> None:
    """Export with header ``spike_time_s,amplitude``."""
    with open(path, "wb") as fh:
        fh.write(b"spike_time_s,amplitude\n")
        _csvio.write_rows(fh, "%.9g,%.9g\n", train.spike_times, train.spike_amplitudes)


def stats_to_dict(stats: SpikeStats, label: str = "") -> dict:
    return {
        "label": label,
        "count": stats.count,
        "mean_isi_s": stats.mean_isi,
        "frequency_mhz": stats.frequency,
        "duration_s": stats.duration,
    }


def write_stats_json(stats: SpikeStats, path, label: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(stats_to_dict(stats, label), fh, indent=2, sort_keys=True)
        fh.write("\n")
