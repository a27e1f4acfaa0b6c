"""Exact scalar arithmetic: p-local rationals, residues mod p, truncated u-series.

Three coefficient domains underpin everything else here:

* p-local rationals.  Represented by :class:`fractions.Fraction`, which already
  maintains the invariants we need (always reduced, positive denominator,
  arbitrary precision).  p-locality is a *certificate* checked at the moment a
  rational is reduced mod p, never assumed.

* the prime field F_p, as plain int residues in [0, p): what
  :func:`reduce_mod_p` returns, and what every grid, u-series and ring
  element stores.

* F_p[[u]] / (u^M): truncated power series in one variable u over F_p, as
  :class:`USeries`.  The coefficient list has fixed length M and every stated
  identity on these values is an identity modulo u^M.

All values are immutable after construction and all operations are pure, so
values can be shared freely between threads or workers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (
    InexactDivision,
    NegativePower,
    NotPIntegral,
    PrecisionMismatch,
    PrimeMismatch,
)

# Desk scale: small primes keep the distinguished degree p^(n+1) - p^n small.
MAX_PRIME = 17

RationalLike = Fraction | int


def validate_prime(p: int) -> int:
    """Check that p is a prime <= MAX_PRIME, by trial division."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if p > MAX_PRIME:
        raise ValueError(f"p={p} exceeds the desk-scale bound {MAX_PRIME}")
    for q in range(2, p):
        if q * q > p:
            break
        if p % q == 0:
            raise ValueError(f"p={p} is not prime (divisible by {q})")
    return p


def is_p_integral(value: RationalLike, p: int) -> bool:
    return Fraction(value).denominator % p != 0


def reduce_mod_p(value: RationalLike, p: int) -> int:
    """Reduce a p-integral rational mod p: the residue numerator *
    denominator^(-1) mod p, in [0, p).

    Raises NotPIntegral when p divides the denominator; that always signals a
    failed integrality certification upstream, e.g. a wrongly constructed
    formal group law, and must not be masked.
    """
    q = Fraction(value)
    if q.denominator % p == 0:
        raise NotPIntegral(f"{q} is not p-integral at p={p}")
    return q.numerator * pow(q.denominator, -1, p) % p


class USeries:
    """Element of F_p[[u]]/(u^M): Sum c_t u^t with t < M = precision.

    The weight (u-valuation) of a nonzero value is the least t with c_t != 0.
    Arithmetic requires equal precision on both operands; anything else is a
    caller bug and raises PrecisionMismatch.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = tuple(c % p for c in coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, precision: int) -> "USeries":
        return cls(p, (0,) * precision)

    @classmethod
    def one(cls, p: int, precision: int) -> "USeries":
        return cls(p, (1,) + (0,) * (precision - 1))

    @classmethod
    def monomial(cls, p: int, precision: int, t: int, c: int = 1) -> "USeries":
        if not 0 <= t < precision:
            return cls.zero(p, precision)
        coeffs = [0] * precision
        coeffs[t] = c
        return cls(p, coeffs)

    @classmethod
    def from_coeffs(cls, p: int, precision: int, coeffs) -> "USeries":
        cs = list(coeffs)[:precision]
        cs += [0] * (precision - len(cs))
        return cls(p, cs)

    # -- structure ---------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    def weight(self) -> int | None:
        """u-valuation; None when zero up to precision."""
        for t, c in enumerate(self.coeffs):
            if c:
                return t
        return None

    def _check(self, other: "USeries"):
        if self.p != other.p:
            raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"precision {self.precision} vs {other.precision}"
            )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "USeries") -> "USeries":
        self._check(other)
        return USeries(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "USeries") -> "USeries":
        self._check(other)
        return USeries(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "USeries":
        return USeries(self.p, [-a for a in self.coeffs])

    def __mul__(self, other: "USeries") -> "USeries":
        self._check(other)
        M = self.precision
        # Exact: entries < p^2 * M stay far below 2^63.
        full = np.convolve(
            np.array(self.coeffs, dtype=np.int64),
            np.array(other.coeffs, dtype=np.int64),
        )
        return USeries(self.p, (full[:M] % self.p).tolist())

    def __pow__(self, e: int) -> "USeries":
        if e < 0:
            raise NegativePower(f"power {e} of a u-series; invert first")
        result = USeries.one(self.p, self.precision)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divide_by_u(self, t: int = 1) -> "USeries":
        """Exact division by u^t.  The quotient's top t coefficients are not
        determined by this value and are set to 0; callers must account for
        the lost precision."""
        if any(self.coeffs[:t]):
            raise InexactDivision(
                f"u^{t} does not divide {self.render()} (precision {self.precision})"
            )
        return USeries(self.p, self.coeffs[t:] + (0,) * t)

    def inverse(self) -> "USeries":
        """Multiplicative inverse of a unit, by Newton iteration
        y <- y * (2 - x * y), which doubles the number of exact terms."""
        if not self.is_unit():
            raise ZeroDivisionError("constant term is zero; not a unit")
        p, M = self.p, self.precision
        x = np.array(self.coeffs, dtype=np.int64)
        y = np.array([pow(self.coeffs[0], -1, p)], dtype=np.int64)
        n = 1
        while n < M:
            n = min(2 * n, M)
            two_minus_xy = -np.convolve(x[:n], y)[:n] % p
            two_minus_xy[0] += 2
            y = np.convolve(y, two_minus_xy)[:n] % p
        return USeries(p, y.tolist())

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"USeries(p={self.p}, {self.render()})"

    def render(self) -> str:
        """Canonical text form, lowest exponent first, e.g. ``1 + 2*u^3``."""
        parts = []
        for t, c in enumerate(self.coeffs):
            if not c:
                continue
            if t == 0:
                parts.append(str(c))
            elif t == 1:
                parts.append("u" if c == 1 else f"{c}*u")
            else:
                parts.append(f"u^{t}" if c == 1 else f"{c}*u^{t}")
        return " + ".join(parts) if parts else "0"

