"""Reference implementations that tests compare the package against.

They re-derive a contract by the plainest means, with no code of the
implementation they check, so a test that compares the two checks the
contract, not the code against itself.
"""

import numpy as np

from protoneuro.spikes import SpikeDetectionConfig, SpikeTrain


def detect_spikes_naive(series, config: SpikeDetectionConfig) -> SpikeTrain:
    """O(n^2) oracle with the contract of ``spikes.detect_spikes``: strict
    maxima by exhaustive scanning (a plateau at its first sample, never at an
    end) above the threshold, then repeated global-maximum selection (earlier
    time wins ties) that drops every candidate closer than the minimum peak
    distance to a kept one."""
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
