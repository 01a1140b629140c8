"""Seeded inputs for the benchmark: a toy Zipfian language and the triplets
the library's own noise model derives from it.

Nothing here is downloaded. The same seed always yields the same words, the
same rank-frequency weights and the same sentences.
"""

from __future__ import annotations

import numpy as np

from apeforge.pipeline import NoiseSpec, synth_corrupt

LETTERS = tuple("abcdefghijklmnopqrstuvwxyz")


class Language:
    """A closed word list with Zipfian unigram weights and a confusion table.

    Words are random letter strings, so BPE finds real subword structure in
    them. Each word is confusable with two others, which is the material the
    substitution noise draws from.
    """

    def __init__(self, seed: int, types: int = 500, exponent: float = 1.0):
        rng = np.random.default_rng(seed)
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < types:
            length = int(rng.integers(2, 8))
            word = "".join(rng.choice(LETTERS, size=length))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        weights = 1.0 / np.arange(1, types + 1) ** exponent
        self.probs = weights / weights.sum()
        self.confusion = {
            w: tuple(words[int(j)] for j in rng.choice(types, size=2, replace=False))
            for w in words
        }
        self.fillers = tuple(words[:20])

    def shuffled_probs(self, seed: int) -> np.ndarray:
        """The same Zipf curve over a permuted ranking: another domain."""
        return np.random.default_rng(seed).permutation(self.probs)

    def sentences(self, rng, count: int, lo: int, hi: int, probs=None):
        """`count` sentences with lengths spread evenly over [lo, hi] in a
        seeded order: seeds change the words, not the amount of work."""
        probs = self.probs if probs is None else probs
        lengths = rng.permutation(np.round(np.linspace(lo, hi, count)).astype(int))
        out = []
        for n in lengths:
            ids = rng.choice(len(self.words), size=int(n), p=probs)
            out.append(tuple(self.words[i] for i in ids))
        return out

    def noise(self, substitution=0.10, deletion=0.05, insertion=0.05, swap=0.05):
        return NoiseSpec(
            substitution=substitution,
            deletion=deletion,
            insertion=insertion,
            swap=swap,
            confusion=self.confusion,
            fillers=self.fillers,
        )

    def triplets(self, rng, count: int, lo: int, hi: int, spec=None):
        """Triplets whose mt is a noisy copy of pe and src is its cipher."""
        pe = self.sentences(rng, count, lo, hi)
        spec = self.noise() if spec is None else spec
        return synth_corrupt(pe, spec, int(rng.integers(2**31)))
