import os

import pytest
from hypothesis import settings

from unscodec import codec, signals
from unscodec.config import CodecConfig

# Timings on a shared virtual machine drift too far for a per-example
# deadline to mean anything; every property test inherits this profile.
# HYPOTHESIS_PROFILE=fuzz draws 2,000 examples per property instead of 100.
settings.register_profile("unscodec", deadline=None)
settings.register_profile("fuzz", deadline=None, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "unscodec"))


@pytest.fixture(scope="session")
def corpus_runs():
    """Encode/decode the 30 s mixed corpus at both rates, once per session."""
    items = signals.mixed_corpus(30.0)
    runs = {}
    for mode in ("12k", "16k"):
        cfg = CodecConfig(mode=mode)
        per_item = {}
        for name, pcm in items.items():
            blob, stats = codec.encode_stream(pcm, cfg)
            out, _, _ = codec.decode_stream(blob, cfg)
            per_item[name] = dict(blob=blob, stats=stats, out=out, pcm=pcm)
        runs[mode] = per_item
    return runs
