"""Split encryption counters (major + minor), one block per page.

Following the paper's Table 1 (and the split-counter design of Yan et
al. that it builds on): each 4 KB page owns one 64 B counter block
holding an 8-byte *major* counter and 64 seven-bit *minor* counters,
one per 64 B data block. A block's encryption counter is the
``(major, minor)`` pair, which is spatially unique (address is mixed
into the pad) and temporally unique (the minor increments every write;
on minor overflow the major increments, minors reset, and the whole
page must be re-encrypted).

The 64 x 7 bit minors pack into exactly 56 bytes, so the encoded block
is exactly 64 bytes — one metadata cache line, as the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lshift
from typing import List, Tuple

MINOR_BITS = 7
MINOR_LIMIT = (1 << MINOR_BITS) - 1  # 127
MINORS_PER_BLOCK = 64
MAJOR_BYTES = 8
ENCODED_BYTES = MAJOR_BYTES + (MINORS_PER_BLOCK * MINOR_BITS) // 8  # 64
#: Bit offset of each minor in the packed field (minor 0 lowest).
_SHIFTS = tuple(range(0, MINORS_PER_BLOCK * MINOR_BITS, MINOR_BITS))


def counter_in_line(raw: bytes, block_offset: int) -> Tuple[int, int]:
    """The (major, minor) pair of block ``block_offset``, read straight
    from an encoded 64-byte line without decoding the other minors."""
    major = int.from_bytes(raw[:MAJOR_BYTES], "little")
    packed = int.from_bytes(raw[MAJOR_BYTES:], "little")
    return (major, (packed >> _SHIFTS[block_offset]) & MINOR_LIMIT)


@dataclass
class CounterBlock:
    """In-flight representation of one page's counter block."""

    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * MINORS_PER_BLOCK)

    def __post_init__(self) -> None:
        if self.major < 0:
            raise ValueError("major counter cannot be negative")
        if len(self.minors) != MINORS_PER_BLOCK:
            raise ValueError(
                f"expected {MINORS_PER_BLOCK} minors, got {len(self.minors)}"
            )
        if min(self.minors) < 0 or max(self.minors) > MINOR_LIMIT:
            for minor in self.minors:
                if not 0 <= minor <= MINOR_LIMIT:
                    raise ValueError(f"minor counter {minor} out of 7-bit range")

    def counter_for(self, block_offset: int) -> Tuple[int, int]:
        """The (major, minor) pair encrypting block ``block_offset``."""
        return (self.major, self.minors[block_offset])

    def bump(self, block_offset: int) -> bool:
        """Advance the counter for a write to block ``block_offset``.

        Returns ``True`` when the minor overflowed — the caller must
        then re-encrypt every block in the page under the new major
        (the overflow path the split-counter design minimizes).
        """
        minor = self.minors[block_offset]
        if minor < MINOR_LIMIT:
            self.minors[block_offset] = minor + 1
            return False
        self.major += 1
        self.minors = [0] * MINORS_PER_BLOCK
        self.minors[block_offset] = 1
        return True

    # -- wire format --------------------------------------------------------

    def encode(self) -> bytes:
        """Pack into the 64-byte line stored in NVM."""
        packed = sum(map(lshift, self.minors, _SHIFTS))
        return self.major.to_bytes(MAJOR_BYTES, "little") + packed.to_bytes(
            ENCODED_BYTES - MAJOR_BYTES, "little"
        )

    @classmethod
    def decode(cls, raw: bytes) -> "CounterBlock":
        """Unpack a 64-byte line (zero-filled lines decode to zeros)."""
        if len(raw) != ENCODED_BYTES:
            raise ValueError(f"counter block must be {ENCODED_BYTES} bytes")
        major = int.from_bytes(raw[:MAJOR_BYTES], "little")
        packed = int.from_bytes(raw[MAJOR_BYTES:], "little")
        minors = [(packed >> shift) & MINOR_LIMIT for shift in _SHIFTS]
        return cls(major=major, minors=minors)

    def copy(self) -> "CounterBlock":
        return CounterBlock(major=self.major, minors=list(self.minors))

    def is_zero(self) -> bool:
        """True for a freshly initialized (never written) page."""
        return self.major == 0 and not any(self.minors)
