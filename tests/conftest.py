import numpy as np
import pytest

from vsr3d.config import PipelineConfig
from vsr3d.fixtures import SynthConfig, corpus_sentence


def reference_windows(frame_count, durations):
    """`enumerate_subsequences` by a plain double loop: every (start,
    duration) window that fits, ordered by start then duration."""
    rows = [(start, d) for start in range(frame_count) for d in durations
            if start + d <= frame_count]
    return np.array(rows, dtype=np.intp).reshape(-1, 2)


@pytest.fixture(scope="session")
def synth_cfg():
    return SynthConfig(seed=42, noise_sigma=4.0 / 255.0)


@pytest.fixture(scope="session")
def short_sentence(synth_cfg):
    """Sentence 0 of the seed-42 corpus, (video, truth)."""
    return corpus_sentence(synth_cfg, 0)


@pytest.fixture(scope="session")
def corpus_config():
    """Pipeline configuration matched to the synthetic corpus (unit durations
    3..12 frames, no audio-visual lag)."""
    return PipelineConfig(
        delta_t_ms=0.0,
        min_duration=3,
        max_duration=12,
        biphone_min_duration=6,
        biphone_max_duration=24,
        c_grid=(64.0,),
        gamma_grid=(2.0**-3,),
    )


@pytest.fixture(scope="session")
def segmented_sentence(short_sentence, corpus_config):
    from vsr3d.pipeline import segment_video

    video, truth = short_sentence
    return video, truth, segment_video(video, corpus_config)

