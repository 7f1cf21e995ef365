"""Pure-integer splitmix64 and its inverse, as a reference for ``RngState``.

``mix64`` is the standard splitmix64 output permutation and ``draw`` the
generator's draw ``t`` (``mix64(seed + (t + 1) * GOLDEN)``), in Python
integers apart from the numpy code under test. Every step of ``mix64`` is a
bijection on 64-bit words, so ``seed_with_draw`` can craft a seed whose draw
at a chosen counter is a chosen word, such as one the rejection test refuses.
"""

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX_A) & MASK
    z = ((z ^ (z >> 27)) * MIX_B) & MASK
    return z ^ (z >> 31)


def draw(seed: int, t: int) -> int:
    return mix64((seed + (t + 1) * GOLDEN) & MASK)


def _unshift(y: int, s: int) -> int:
    # inverse of x -> x ^ (x >> s): each pass fixes s more high bits
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def unmix64(y: int) -> int:
    y = _unshift(y, 31)
    y = (y * pow(MIX_B, -1, 2**64)) & MASK
    y = _unshift(y, 27)
    y = (y * pow(MIX_A, -1, 2**64)) & MASK
    return _unshift(y, 30)


def seed_with_draw(t: int, word: int) -> int:
    """The seed whose draw at counter ``t`` is ``word``."""
    return (unmix64(word) - (t + 1) * GOLDEN) & MASK
