"""Shared compiler building blocks: the anchored block reader."""

import pytest

from twoham import decode_supertile, explore
from twoham.representation import blocks_at
from twoham.strong import STRONG2, compile_strong
from twoham.weak import WEAK1, compile_weak

from test_acceptance import TARGET_BOUND, suite


def decoding_offsets(s, rep):
    """Every grid offset at which some block of s decodes to a tile."""
    m = rep.m
    return [(ox, oy) for ox in range(m) for oy in range(m)
            if any(rep.decode_block(block) is not None
                   for block in blocks_at(s, m, ox, oy).values())]


@pytest.mark.parametrize("compiler, variant",
                         [(compile_strong, STRONG2), (compile_weak, WEAK1)])
def test_anchor_hint_matches_full_scan(compiler, variant):
    # the hint must name exactly the alignments a full m x m scan decodes
    # at: missing one could hide an ambiguity, an extra one is wasted work
    comp = compiler(dict(suite())["pair"], variant)
    sim = explore(comp.simulator_tas(), TARGET_BOUND * comp.budget)
    decoded = 0
    for s in sim.members():
        offsets = comp.rep.offsets_for(s)
        assert offsets == decoding_offsets(s, comp.rep), s.fingerprint
        if offsets:
            decoded += 1
            assert decode_supertile(s, comp.rep).offset == offsets[0]
    assert decoded >= 3, decoded
