"""Detection against the synthesised truth.

``synth`` places each spike itself, so ``detect`` can be scored against the
generator's own spike times: a true spike is recalled when a detected one
lies within one second of it, and a detected spike is correct when a true
one does. The grid is ROADMAP item 6's (seed 5, spikes 1e-3 high with a
1.5 s half width, mean ISI 24 s, jitter 0.3, one spike per 25 s of series;
threshold 5e-4, minimum distance 5 s) on 5,000 spikes instead of 40,000;
each level is that table's to within 0.005 in recall and precision and
0.1 s in mean ISI.
"""

import numpy as np
import pytest

from protoneuro import signals, spikes
from protoneuro.config import SpikeDetectionConfig

COUNT = 5000


def near(a, b, tolerance):
    """For each time of ``a``, whether a time of the sorted ``b`` lies within ``tolerance``."""
    i = np.searchsorted(b, a)
    gap = np.minimum(np.abs(a - b[np.maximum(i - 1, 0)]), np.abs(b[np.minimum(i, b.size - 1)] - a))
    return gap <= tolerance


@pytest.mark.parametrize("noise_sd, recall, precision, mean_isi", [
    (0.0, 1.0, 1.0, 24.0),
    (5e-5, 1.0, 1.0, 24.0),
    (1e-4, 0.994, 0.994, 24.0),
    (2e-4, 0.933, 0.851, 22.8),
    (3e-4, 0.846, 0.511, 15.1),  # the series benchmark's noise level
])
def test_detection_recovers_the_synthesised_spikes(tmp_path, noise_sd, recall, precision,
                                                    mean_isi):
    spec = signals.SyntheticSpikeSpec(duration=25.0 * COUNT, count=COUNT, mean_isi=24.0,
                                      jitter_fraction=0.3, noise_sd=noise_sd, seed=5)
    truth = signals._placed_spike_times(spec, np.random.default_rng(spec.seed))
    path = tmp_path / "s.csv"
    signals.write_timeseries_csv(signals.synthesize_spiky_series(spec), path)
    train = spikes.detect_spikes(signals.read_timeseries_csv(path),
                                 SpikeDetectionConfig(threshold=5e-4, min_peak_distance=5.0))
    found = train.spike_times
    assert near(truth, found, 1.0).mean() == pytest.approx(recall, abs=0.005)
    assert near(found, truth, 1.0).mean() == pytest.approx(precision, abs=0.005)
    assert spikes.compute_stats(train).mean_isi == pytest.approx(mean_isi, abs=0.1)
