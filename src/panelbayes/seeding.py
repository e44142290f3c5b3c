"""Deterministic seed derivation for parallel replicates and chain stages.

Each index is XOR-folded into the running seed and passed through the
splitmix64 finalizer: pure arithmetic, so results do not depend on
scheduling order or worker count. The seed tree, writing ``s: (k, 0)`` for
``derive_seed(s, k, 0)``, from the `SimConfig` seed s and the `ChainConfig`
seed c (the CLI reads both from one ``seed`` key): replicate k's panel is
on ``s: (k, 0)``; a chain on c burns in on ``c: ()``, segment k on ``c: (k)``;
`study` runs replicate k's run r (index in `experiment.RUNS`), stage t on
``c: (k, 1, r, t)``; `spindex` its stage-1, diffuse and carried-over fits
on ``c: (1)``, ``c: (2)`` and ``c: (3)``.
"""

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mix with good avalanche."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def derive_seed(master: int, *indices: int) -> int:
    """Fold one or more stream indices into `master`, one mix64 round each.

    ``derive_seed(s)`` == ``s & MASK64``; distinct index tuples give
    distinct, well-separated streams.
    """
    s = master & MASK64
    for idx in indices:
        s = mix64(s ^ (((idx + 1) * _GOLDEN) & MASK64))
    return s
