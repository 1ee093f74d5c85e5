from __future__ import annotations

import numpy as np
import pytest

from sedpipe import synth
from sedpipe.errors import RangeError


def _spec(**kwargs):
    base = dict(
        n_clips=3,
        duration_s=3.0,
        class_count=3,
        polyphony_max=2,
        seed=7,
        sample_rate=16000,
    )
    base.update(kwargs)
    return synth.SynthSpec(**base)


def test_same_seed_is_bit_identical():
    a = synth.synth_dataset(_spec())
    b = synth.synth_dataset(_spec())
    for (clip_a, events_a), (clip_b, events_b) in zip(a, b):
        assert np.array_equal(clip_a.samples, clip_b.samples)
        assert events_a == events_b


def test_different_seeds_differ():
    a = list(synth.synth_dataset(_spec(seed=1)))
    b = list(synth.synth_dataset(_spec(seed=2)))
    assert not np.array_equal(a[0][0].samples, b[0][0].samples)


def test_polyphony_one_means_disjoint_events():
    for _, events in synth.synth_dataset(_spec(polyphony_max=1, seed=31)):
        for i, first in enumerate(events):
            for second in events[i + 1 :]:
                assert first.offset <= second.onset or second.offset <= first.onset


def test_labels_come_from_declared_vocabulary():
    spec = _spec(class_count=6, duration_s=10.0, n_clips=2)
    names = set(synth.class_names(spec))
    assert len(names) == 6
    for _, events in synth.synth_dataset(spec):
        assert {e.label for e in events} <= names


def test_clips_are_stereo_in_range():
    for clip, events in synth.synth_dataset(_spec()):
        assert clip.n_channels == 2
        assert clip.n_samples / clip.sample_rate == pytest.approx(3.0)
        assert np.max(np.abs(clip.samples)) <= 1.0
        assert len(events) > 0


def test_events_respect_clip_bounds():
    for _, events in synth.synth_dataset(_spec(seed=5)):
        for ev in events:
            assert 0.0 <= ev.onset < ev.offset
            assert ev.offset <= 3.0 + 1e-6


def test_stereo_gain_signature_per_class():
    # gains are constant-sum, so a mono mix hides the class cue that the
    # channel pair still carries
    gains = synth.class_gains(_spec(class_count=4))
    assert gains.shape == (4, 2)
    sums = gains.sum(axis=1)
    assert np.allclose(sums, sums[0])
    assert len({tuple(g) for g in np.round(gains, 9)}) == 4


def test_shared_template_mode_collapses_spectra():
    # in shared mode every event peaks at the common fundamental, whatever
    # its class; in distinct mode the peaks follow the class fundamentals
    spec = _spec(template_mode="shared", class_count=3, seed=77, duration_s=4.0)
    names = synth.class_names(spec)
    base = synth.class_fundamentals(spec)[0]
    peaks = {}
    for clip, events in synth.synth_dataset(spec):
        mono = clip.samples.mean(axis=0)
        for ev in events:
            lo = int(ev.onset * spec.sample_rate)
            hi = int(ev.offset * spec.sample_rate)
            seg = mono[lo:hi]
            if seg.size < 1024:
                continue
            n = min(4096, seg.size)
            spectrum = np.abs(np.fft.rfft(seg[:n] * np.hanning(n)))
            freq = np.argmax(spectrum) * spec.sample_rate / n
            peaks.setdefault(ev.label, []).append(freq)
    measured = {label: np.median(v) for label, v in peaks.items() if v}
    assert len(measured) >= 2, "fixture needs events from at least two classes"
    for label in measured:
        assert measured[label] == pytest.approx(base, rel=0.1), (label, measured[label])
    assert set(measured) <= set(names)


def test_rejects_bad_spec():
    with pytest.raises(RangeError):
        _spec(class_count=0)
    with pytest.raises(RangeError):
        _spec(polyphony_max=0)
    with pytest.raises(RangeError):
        _spec(template_mode="mono")
