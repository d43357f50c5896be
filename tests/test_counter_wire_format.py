"""Wire-format pins for counter lines and the real crypto engine.

The known answers below were produced by the original per-element
codec and the re-keyed-per-call blake2b engine; the byte-level fast
paths must reproduce them exactly. The properties tie the byte views
of the functional tree (``persisted_counter_bytes`` /
``current_counter_bytes``) to the decoded-block views they replace.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.crypto.counters import (
    ENCODED_BYTES,
    MINOR_LIMIT,
    MINORS_PER_BLOCK,
    CounterBlock,
    counter_in_line,
)
from repro.crypto.engine import RealCryptoEngine
from repro.mem.backend import MetadataRegion
from repro.util.units import MB

COUNTER_KATS = {
    "zero": (CounterBlock(), "00" * 64),
    "ramp": (
        CounterBlock(major=1, minors=list(range(64))),
        "01000000000000008080604028180e888462c168381e90886442a9582e988c66"
        "c3e9783ea09068442a994ea8946ac56ab95eb0986c46abd96eb89c6ec7ebf97e",
    ),
    "max": (CounterBlock(major=2**64 - 1, minors=[127] * 64), "ff" * 64),
    "mixed": (
        CounterBlock(
            major=0x0123456789ABCDEF, minors=[(i * 37) % 128 for i in range(64)]
        ),
        "efcdab89674523018092f24dc97907a8a6fcc20b1b56d0bae6474eb8a6f88ef0"
        "cc8859f7a0a2fa41cbfa47c8b6e4c60d9896f08aee4b4839e7989ef8c08ada37",
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTER_KATS))
def test_counter_encoding_known_answers(name):
    block, expected = COUNTER_KATS[name]
    assert block.encode().hex() == expected
    assert CounterBlock.decode(bytes.fromhex(expected)) == block


def test_engine_known_answers():
    engine = RealCryptoEngine()
    ramp = bytes(range(64))
    assert engine.hash8(b"").hex() == "aa5b3e35d88dc260"
    assert engine.hash8(ramp).hex() == "62b863e46c64afc7"
    assert engine.mac(b"abc", b"de").hex() == "159ad850043a871a"
    assert engine.mac().hex() == "aa5b3e35d88dc260"
    assert engine.pad(0x1000, 3, 5).hex() == (
        "16a635b739405be3d55f1c8b1092d9a91876fc08c0fa5459d45768c3b14f0e74"
        "ea7b28f93f540a3e41ca89e2952800ed70eab65f7e2bcfe7a972efd9d7235f57"
    )
    assert engine.encrypt(ramp, 0x40, 1, 2).hex() == (
        "cedcd44a30daa0c5e98dd89b5490ca5a1b66de8a448f726aa5124a96b1927485"
        "941faf84497f75cf69fb0ba26eb82b232d06b41a352c2e84580590a1b303f551"
    )
    assert RealCryptoEngine(b"other-key").hash8(ramp).hex() == "7128f83a80c1c616"


def test_engine_calls_do_not_share_state():
    engine = RealCryptoEngine()
    first = engine.hash8(b"x")
    engine.hash8(b"y" * 200)
    engine.mac(b"y")
    assert engine.hash8(b"x") == first


def test_xor_length_mismatch_still_raises():
    with pytest.raises(ValueError, match="length mismatch"):
        RealCryptoEngine().decrypt(bytes(63), 0, 0, 0)


def _loop_encode(block):
    """The original per-minor packing loop, kept as the reference."""
    packed = 0
    for minor in reversed(block.minors):
        packed = (packed << 7) | minor
    return block.major.to_bytes(8, "little") + packed.to_bytes(56, "little")


@given(
    st.integers(0, 2**64 - 1),
    st.lists(
        st.integers(0, MINOR_LIMIT),
        min_size=MINORS_PER_BLOCK,
        max_size=MINORS_PER_BLOCK,
    ),
)
def test_encode_matches_loop_reference(major, minors):
    block = CounterBlock(major=major, minors=minors)
    assert block.encode() == _loop_encode(block)


@given(st.binary(min_size=ENCODED_BYTES, max_size=ENCODED_BYTES))
def test_any_line_round_trips(raw):
    block = CounterBlock.decode(raw)
    assert block.encode() == raw
    for offset in (0, 1, 31, MINORS_PER_BLOCK - 1):
        assert counter_in_line(raw, offset) == block.counter_for(offset)


@given(
    st.binary(max_size=2 * ENCODED_BYTES).filter(lambda b: len(b) != ENCODED_BYTES)
)
def test_wrong_length_line_rejected(raw):
    with pytest.raises(ValueError, match="must be 64 bytes"):
        CounterBlock.decode(raw)


@given(
    st.integers(0, MINORS_PER_BLOCK - 1),
    st.one_of(st.integers(max_value=-1), st.integers(min_value=MINOR_LIMIT + 1)),
)
def test_out_of_range_minor_rejected(position, bad):
    minors = [0] * MINORS_PER_BLOCK
    minors[position] = bad
    with pytest.raises(ValueError, match=f"minor counter {bad} out of 7-bit range"):
        CounterBlock(minors=minors)


def test_first_out_of_range_minor_is_reported():
    minors = [0] * MINORS_PER_BLOCK
    minors[3], minors[9] = 200, -1
    with pytest.raises(ValueError, match="minor counter 200 "):
        CounterBlock(minors=minors)


def _assert_byte_views_agree(tree, indices):
    for index in indices:
        persisted = tree.persisted_counter(index).encode()
        assert tree.persisted_counter_bytes(index) == persisted
        assert tree.current_counter_bytes(index) == tree.current_counter(index).encode()


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["leaf", "strict", "amnt"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_byte_views_match_decoded_views(protocol, seed):
    config = default_config(capacity_bytes=64 * MB)
    mee = MemoryEncryptionEngine(
        config, make_protocol(protocol, config), functional=True
    )
    rng = random.Random(seed)
    pages = rng.sample(range(mee.geometry.num_counter_blocks), 6)
    for _ in range(rng.randrange(20, 200)):
        addr = rng.choice(pages) * 4096 + rng.randrange(64) * 64
        mee.write_block(addr, data=rng.randbytes(64))
    never_written = next(i for i in range(7) if i not in pages)
    indices = pages + [never_written]
    _assert_byte_views_agree(mee.tree, indices)

    mee.crash()
    _assert_byte_views_agree(mee.tree, indices)

    mee.nvm.backend.corrupt(MetadataRegion.COUNTERS, pages[0])
    _assert_byte_views_agree(mee.tree, indices)


def test_wrong_length_persisted_line_raises_in_both_views():
    config = default_config(capacity_bytes=64 * MB)
    mee = MemoryEncryptionEngine(
        config, make_protocol("leaf", config), functional=True
    )
    mee.nvm.backend.write(MetadataRegion.COUNTERS, 7, bytes(ENCODED_BYTES - 1))
    for view in (
        mee.tree.persisted_counter_bytes,
        mee.tree.current_counter_bytes,
        mee.tree.persisted_counter,
    ):
        with pytest.raises(ValueError, match="must be 64 bytes"):
            view(7)
