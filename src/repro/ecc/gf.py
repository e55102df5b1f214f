"""Galois-field arithmetic for the chipkill codes.

Chipkill ECC treats the bits a chip contributes to a codeword as one symbol
of GF(2^m): SSC uses 8-bit symbols (GF(256)), SSC-DSD uses 4-bit symbols
(GF(16)).  This module provides table-driven GF(2^m) arithmetic for any
small m; :mod:`repro.ecc.rs` builds Reed-Solomon codes on top of it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

#: Primitive polynomials (with the x^m term) for the field sizes we use.
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,  # x^4 + x + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


class GF:
    """The finite field GF(2^m) with log/antilog tables."""

    def __init__(self, m: int, primitive_poly: int | None = None) -> None:
        if primitive_poly is None:
            if m not in PRIMITIVE_POLYS:
                raise ValueError(f"no default primitive polynomial for m={m}")
            primitive_poly = PRIMITIVE_POLYS[m]
        self.m = m
        self.size = 1 << m
        self.poly = primitive_poly
        self.exp: List[int] = [0] * (2 * self.size)
        self.log: List[int] = [0] * self.size
        x = 1
        for i in range(self.size - 1):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & self.size:
                x ^= primitive_poly
        # duplicate so exp[i + (size-1)] works without a modulo
        for i in range(self.size - 1, 2 * self.size):
            self.exp[i] = self.exp[i - (self.size - 1)]
        self._np_tables: Optional[tuple] = None

    def np_tables(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(log, exp)`` as numpy arrays for batch kernels.

        The exp table keeps the doubled length, so ``exp[log[a] + log[b]]``
        needs no modulo (max index ``2*(size-2) < 2*size``).
        """
        if self._np_tables is None:
            log = np.asarray(self.log, dtype=np.int64)
            exp = np.asarray(self.exp, dtype=np.int64)
            log.setflags(write=False)
            exp.setflags(write=False)
            self._np_tables = (log, exp)
        return self._np_tables

    # ------------------------------------------------------------ basic ops

    def add(self, a: int, b: int) -> int:
        """Addition (== subtraction) is XOR in characteristic 2."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        return self.exp[self.log[a] - self.log[b] + self.size - 1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[self.size - 1 - self.log[a]]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0 if n else 1
        return self.exp[(self.log[a] * n) % (self.size - 1)]

    def alpha_pow(self, n: int) -> int:
        """alpha^n for the primitive element alpha."""
        return self.exp[n % (self.size - 1)]

    # -------------------------------------------------------- polynomials
    # Polynomials are lists of coefficients, lowest degree first.

    def poly_eval(self, p: List[int], x: int) -> int:
        """Evaluate polynomial ``p`` at ``x`` (Horner, highest degree last)."""
        result = 0
        for coeff in reversed(p):
            result = self.mul(result, x) ^ coeff
        return result

    def poly_mul(self, p: List[int], q: List[int]) -> List[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a == 0:
                continue
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= self.mul(a, b)
        return out

    def poly_add(self, p: List[int], q: List[int]) -> List[int]:
        n = max(len(p), len(q))
        out = [0] * n
        for i, a in enumerate(p):
            out[i] ^= a
        for i, b in enumerate(q):
            out[i] ^= b
        return out

    def poly_scale(self, p: List[int], s: int) -> List[int]:
        return [self.mul(c, s) for c in p]

    def poly_deriv(self, p: List[int]) -> List[int]:
        """Formal derivative: even-power terms vanish in characteristic 2."""
        return [p[i] if i % 2 == 1 else 0 for i in range(1, len(p))]


@lru_cache(maxsize=None)
def field(m: int) -> GF:
    """Shared GF(2^m) instance (tables are immutable)."""
    return GF(m)
