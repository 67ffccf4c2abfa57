"""Brute-force walk enumeration, independent of the DP in qexpander.cayley.

Every length-m sequence over the D letters is generated and reduced by
simulating the cancellation stack directly, vectorized over chunks so the
D=6, m=10 case (60M sequences) stays tractable. Letters are integers
1..D; letter s and s + D/2 (indices wrapping mod D) are mutually inverse,
so D must be even. Also here: the open-word free reduction, the closed
upper bound on return counts, and the shift symmetry of a word.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qexpander.errors import ValidationError


def inverse_letter(s: int, D: int) -> int:
    return (s - 1 + D // 2) % D + 1


def _check_alphabet(D: int, letters) -> None:
    if D < 2 or D % 2 != 0:
        raise ValidationError(f"inverse pairing needs even D >= 2, got D={D}")
    for s in letters:
        if not 1 <= s <= D:
            raise ValidationError(f"letter {s} out of range 1..{D}")


def reduce_word(D: int, letters) -> tuple[int, ...]:
    """Free reduction: repeatedly delete adjacent inverse pairs.

    Single left-to-right stack pass; the result has no adjacent inverse
    pair and its length has the parity of the input length. This is the
    linear (open-word) reduction; trace words are reduced cyclically by
    the symbolic engine instead.
    """
    seq = tuple(letters)
    _check_alphabet(D, seq)
    stack: list[int] = []
    for s in seq:
        if stack and stack[-1] == inverse_letter(s, D):
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def return_count_upper_bound(D: int, m: int) -> int:
    """(D-1)^(m/2) * m! / ((m/2)!)^2, an upper bound on N(0, m) for even m."""
    if m % 2 != 0 or m < 0:
        raise ValidationError(f"bound defined for even m >= 0, got {m}")
    half = m // 2
    return (D - 1) ** half * math.factorial(m) // (math.factorial(half) ** 2)


def shift_symmetry_period(letters) -> int:
    """Largest o dividing len(w) with w invariant under cyclic shift by len/o.

    Input must be nonempty and freely reduced; o = 1 means no nontrivial
    symmetry.
    """
    w = tuple(letters)
    if not w:
        raise ValidationError("shift symmetry of the empty word is undefined")
    n = len(w)
    for o in range(n, 0, -1):
        if n % o != 0:
            continue
        k = n // o
        if w == w[k:] + w[:k]:
            return o
    return 1


def slow_return_counts(d: int, m: int) -> dict[int, int]:
    """Reference of the reference: itertools + reduce_word, tiny sizes only."""
    counts: dict[int, int] = {}
    for seq in itertools.product(range(1, d + 1), repeat=m):
        l = len(reduce_word(d, seq))
        counts[l] = counts.get(l, 0) + 1
    return counts


def enumerate_length_counts(d: int, m: int, chunk_bits: int = 20) -> dict[int, int]:
    """Counts of reduced length l over all d^m letter sequences."""
    if m == 0:
        return {0: 1}
    inv = np.array([0] + [inverse_letter(s, d) for s in range(1, d + 1)], dtype=np.int8)
    total = d**m
    chunk = 1 << chunk_bits
    hist = np.zeros(m + 1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = idx.shape[0]
        # decode mixed-radix digits: letter j of each sequence
        letters = np.empty((rows, m), dtype=np.int8)
        rem = idx.copy()
        for j in range(m - 1, -1, -1):
            letters[:, j] = (rem % d) + 1
            rem //= d
        stack = np.zeros((rows, m), dtype=np.int8)
        sp = np.zeros(rows, dtype=np.int64)
        ar = np.arange(rows)
        for j in range(m):
            x = letters[:, j]
            top = np.where(sp > 0, stack[ar, np.maximum(sp - 1, 0)], 0)
            cancel = (sp > 0) & (top == inv[x])
            sp_pushed = np.where(cancel, sp - 1, sp)
            stack[ar[~cancel], sp[~cancel]] = x[~cancel]
            sp = np.where(cancel, sp_pushed, sp + 1)
        hist += np.bincount(sp, minlength=m + 1)
    return {l: int(c) for l, c in enumerate(hist) if c}
