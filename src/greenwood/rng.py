"""Addressable random streams built on the counter-based Philox generator.

A stream is identified by ``(master_seed, stream_id)`` and nothing else, so
any piece of work (a Monte Carlo replication, a simulated signal) can be
given its own substream and reproduced in isolation, in any order, on any
number of workers. Within a stream, each variate of a draw starts at its own
counter offset (:meth:`RngStream.generator`), the counter-based addressing
of Salmon et al., *Parallel random numbers: as easy as 1, 2, 3* (SC'11).
"""

from __future__ import annotations

from dataclasses import dataclass

from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """One named position in a family of independent random streams.

    The 128-bit Philox key packs ``master_seed`` into the low word and
    ``stream_id`` into the high word, so distinct ids give statistically
    independent sequences under the same master seed. Both must therefore
    lie in ``[0, 2**64)``; a larger value would alias a smaller one.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise TypeError("master_seed must be an int")
        if not isinstance(self.stream_id, int) or isinstance(self.stream_id, bool):
            raise TypeError("stream_id must be an int")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must lie in [0, 2**64)")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError("stream_id must lie in [0, 2**64)")

    def generator(self, variate: int = 0) -> Generator:
        """Return a fresh generator positioned at the start of ``variate``'s range.

        Each variate of a draw (the uniforms and the exponentials of a stable
        sample, say) has its own range of this stream's Philox counter:
        variate ``k`` starts at counter ``k << 62``, which leaves it 2**64
        values before it would reach the next. A draw can therefore stop
        early in one variate without shifting another. Variate 0 starts at
        counter 0, the plain Philox stream of the key.

        A new generator is created on every call: sampling through it never
        mutates the stream object, so repeated calls replay the same draws.
        """
        key = self.master_seed | (self.stream_id << 64)
        return Generator(Philox(key=key, counter=variate << 62))

    def substream(self, offset: int) -> "RngStream":
        """Derive the stream ``offset`` positions after this one (ids wrap at 2**64)."""
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        return RngStream(self.master_seed, (self.stream_id + offset) & _MASK64)
