import hashlib

import pytest

from twoham import model


@pytest.fixture
def colliding_keys(monkeypatch):
    """Keys mod 3 with both bases 1: a key is the tile multiset's hash sum
    mod 3, so every rearrangement of the same tiles collides, and any two
    supertiles collide one time in three."""
    for name, value in (("_KEY_MOD", 3), ("_KEY_X", 1), ("_KEY_Y", 1),
                        ("_XP", [1]), ("_YP", [1])):
        monkeypatch.setattr(model, name, value)


@pytest.fixture
def sha1_calls(monkeypatch):
    """The hex digest of every hashlib.sha1 computed, in call order."""
    digests = []
    sha1 = hashlib.sha1

    def counting_sha1(data):
        h = sha1(data)
        digests.append(h.hexdigest())
        return h

    monkeypatch.setattr(hashlib, "sha1", counting_sha1)
    return digests
