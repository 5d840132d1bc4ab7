"""Forging CRC-32 collisions: a CRC is linear over GF(2).

Flipping a set of bits of a message changes its CRC-32 by the XOR of
what each flip alone changes it by (for messages of one length), so
among 33 or more candidate flips some nonempty subset leaves it as it
was: Gaussian elimination over the candidates' 32-bit syndromes finds
one.
"""

from __future__ import annotations

import zlib


def neutral_flips(base: bytes, candidates) -> int:
    """A nonempty subset of ``candidates`` - each a list of ``(byte, bit)``
    positions of ``base`` flipped together - whose flips, all applied,
    leave ``zlib.crc32(base)`` unchanged, as a bit mask over the
    candidates."""
    crc0 = zlib.crc32(base)
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (syndrome, subset)
    for i, flips in enumerate(candidates):
        flipped = bytearray(base)
        for at, bit in flips:
            flipped[at] ^= 1 << bit
        syndrome, subset = zlib.crc32(flipped) ^ crc0, 1 << i
        while syndrome and syndrome.bit_length() in basis:
            other, other_subset = basis[syndrome.bit_length()]
            syndrome, subset = syndrome ^ other, subset ^ other_subset
        if not syndrome:
            return subset
        basis[syndrome.bit_length()] = (syndrome, subset)
    raise ValueError("the candidates' syndromes are independent: offer more than 32")
