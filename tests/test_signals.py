import hashlib

import pytest

from unscodec import signals


@pytest.mark.parametrize("seed, digest", [
    (5, "680d2bfe30b121b2efb74d0bbe3074a7380e18a249ec557eab025b4a3238cc85"),
    (123, "9ff84e1d6f1eadd29632ef2fe78af4e4a96b8932ee4d3cc8cf52b15838b1ad6e"),
])
def test_speechish_samples_pinned(seed, digest):
    # the one-pole lowpass is a scan: any change to its arithmetic or order shows here
    assert hashlib.sha256(signals.speechish(1.3, seed=seed).tobytes()).hexdigest() == digest
