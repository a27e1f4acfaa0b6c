"""Truncated multivariate polynomial/series arithmetic over an exact scalar ring.

A :class:`MultiSeries` stores a sparse map from exponent tuples to scalars.
Variables split into two degree-accounting groups:

* formal variables (named among ``x y z a``), truncated by *total* formal
  degree: a cap of D keeps terms of total formal degree <= D, i.e. the series
  is an element of R[[formal vars]] / (formal vars)^(D+1);

* u-variables (any other name, conventionally ``u1..un`` or ``u``), truncated
  by total u-degree *strictly below* ``u_cap`` (so ``u_cap = M`` means "modulo
  u^M"), or unbounded when ``u_cap`` is None.

Truncation is applied eagerly after every arithmetic step; since all
downstream claims are congruences modulo the caps, correctness is unaffected
and intermediate sizes stay bounded.

The scalar ring is pluggable: anything with ``zero``, ``one``, ``from_int``,
``is_zero`` and ``inv`` works, with scalar values combined through their own
operators.  Adapters for the exact rationals and F_p live here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    VariableMismatch,
)
from .scalars import FpElement, PrimeField

FORMAL_NAMES = ("x", "y", "z", "a")


class RationalRing:
    """Scalar adapter for exact rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(k: int) -> Fraction:
        return Fraction(k)

    @staticmethod
    def is_zero(c) -> bool:
        return c == 0

    @staticmethod
    def inv(c):
        if c == 0:
            raise ZeroDivisionError("0 is not invertible")
        return Fraction(1) / c

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("RationalRing")

    def __repr__(self):
        return "RationalRing()"


class PrimeFieldRing:
    """Scalar adapter for F_p."""

    def __init__(self, p: int):
        self.field = PrimeField(p)
        self.p = self.field.p
        self.zero = self.field.zero
        self.one = self.field.one

    def from_int(self, k: int) -> FpElement:
        return self.field.from_int(k)

    @staticmethod
    def is_zero(c: FpElement) -> bool:
        return c.residue == 0

    @staticmethod
    def inv(c: FpElement) -> FpElement:
        return c.inverse()

    def __eq__(self, other):
        return isinstance(other, PrimeFieldRing) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeFieldRing", self.p))

    def __repr__(self):
        return f"PrimeFieldRing({self.p})"


class MultiSeries:
    """Sparse truncated series; immutable, safe to share."""

    __slots__ = ("ring", "variables", "formal_cap", "u_cap", "terms", "_formal_idx")

    def __init__(self, ring, variables, formal_cap, u_cap, terms):
        self.ring = ring
        self.variables = tuple(variables)
        self.formal_cap = formal_cap
        self.u_cap = u_cap
        self._formal_idx = tuple(
            i for i, v in enumerate(self.variables) if v in FORMAL_NAMES
        )
        self.terms = {
            e: c
            for e, c in terms.items()
            if not ring.is_zero(c) and self._keep(e)
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, variables, formal_cap, u_cap=None) -> "MultiSeries":
        return cls(ring, variables, formal_cap, u_cap, {})

    @classmethod
    def constant(cls, ring, c, variables, formal_cap, u_cap=None) -> "MultiSeries":
        e = (0,) * len(tuple(variables))
        return cls(ring, variables, formal_cap, u_cap, {e: c})

    @classmethod
    def one(cls, ring, variables, formal_cap, u_cap=None) -> "MultiSeries":
        return cls.constant(ring, ring.one, variables, formal_cap, u_cap)

    @classmethod
    def variable(cls, ring, variables, name, formal_cap, u_cap=None) -> "MultiSeries":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(ring, variables, formal_cap, u_cap, {tuple(e): ring.one})

    def _wrap(self, terms) -> "MultiSeries":
        return MultiSeries(self.ring, self.variables, self.formal_cap, self.u_cap, terms)

    # -- truncation --------------------------------------------------------

    def _keep(self, exps) -> bool:
        fdeg = sum(exps[i] for i in self._formal_idx)
        if fdeg > self.formal_cap:
            return False
        if self.u_cap is not None:
            udeg = sum(exps) - fdeg
            if udeg >= self.u_cap:
                return False
        return True

    def formal_degree(self, exps) -> int:
        return sum(exps[i] for i in self._formal_idx)

    # -- basic ring operations ----------------------------------------------

    def _check_compatible(self, other: "MultiSeries"):
        if (
            self.variables != other.variables
            or self.formal_cap != other.formal_cap
            or self.u_cap != other.u_cap
            or self.ring != other.ring
        ):
            raise VariableMismatch(
                f"incompatible series: {self.variables}/{self.formal_cap}/{self.u_cap}"
                f" vs {other.variables}/{other.formal_cap}/{other.u_cap}"
            )

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                terms[e] = terms[e] + c
            else:
                terms[e] = c
        return self._wrap(terms)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __neg__(self) -> "MultiSeries":
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if not self._keep(e):
                    continue
                c = c1 * c2
                if e in out:
                    out[e] = out[e] + c
                else:
                    out[e] = c
        return self._wrap(out)

    def __pow__(self, n: int) -> "MultiSeries":
        if n < 0:
            raise ValueError("negative power")
        result = MultiSeries.one(self.ring, self.variables, self.formal_cap, self.u_cap)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "MultiSeries":
        return self._wrap({e: c * cc for e, cc in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.formal_cap == other.formal_cap
            and self.u_cap == other.u_cap
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- access -------------------------------------------------------------

    def coefficient(self, **exps):
        """Scalar coefficient of the monomial with the named exponents."""
        e = tuple(exps.get(v, 0) for v in self.variables)
        return self.terms.get(e, self.ring.zero)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), self.ring.zero)

    # -- substitution ---------------------------------------------------------

    def compose(self, substitutions: dict) -> "MultiSeries":
        """Substitute series for formal variables.

        ``substitutions`` maps formal variable names to MultiSeries over a
        common target variable list; unsubstituted variables (formal or u)
        pass through and must exist in the target.  Every substituted series
        must have zero constant term, otherwise the truncated composition
        would not be well defined.
        """
        if substitutions:
            target = next(iter(substitutions.values()))
        else:
            target = self
        t_vars, t_fcap, t_ucap = target.variables, target.formal_cap, target.u_cap
        for name, s in substitutions.items():
            if name not in self.variables or name not in FORMAL_NAMES:
                raise VariableMismatch(f"{name} is not a formal variable of this series")
            if (s.variables, s.formal_cap, s.u_cap) != (t_vars, t_fcap, t_ucap):
                raise VariableMismatch("substituted series disagree on variables/caps")
            if not self.ring.is_zero(s.constant_term()):
                raise NonzeroConstantTerm(f"substitution for {name} has a constant term")

        def passthrough(name: str) -> MultiSeries:
            if name not in t_vars:
                raise VariableMismatch(f"variable {name} missing from target variables")
            return MultiSeries.variable(self.ring, t_vars, name, t_fcap, t_ucap)

        base = {}
        for name in self.variables:
            base[name] = substitutions.get(name)

        power_cache: dict = {}

        def var_power(name: str, e: int) -> MultiSeries:
            key = (name, e)
            if key not in power_cache:
                s = base[name] if base[name] is not None else passthrough(name)
                power_cache[key] = s**e
            return power_cache[key]

        out = MultiSeries.zero(self.ring, t_vars, t_fcap, t_ucap)
        one = MultiSeries.one(self.ring, t_vars, t_fcap, t_ucap)
        for exps, c in self.terms.items():
            term = one.scale(c)
            for name, e in zip(self.variables, exps):
                if e:
                    term = term * var_power(name, e)
            out = out + term
        return out

    def substitute_zero(self, names) -> "MultiSeries":
        """Set the named variables to zero (dropping their terms and the
        variables themselves from the list)."""
        names = set(names)
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        drop = [i for i, v in enumerate(self.variables) if v in names]
        out: dict = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            ke = tuple(e[i] for i in keep)
            out[ke] = out[ke] + c if ke in out else c
        return MultiSeries(
            self.ring,
            tuple(self.variables[i] for i in keep),
            self.formal_cap,
            self.u_cap,
            out,
        )

    def rename_variables(self, mapping: dict) -> "MultiSeries":
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(new_vars)) != len(new_vars):
            raise VariableMismatch("renaming collides variable names")
        return MultiSeries(self.ring, new_vars, self.formal_cap, self.u_cap, self.terms)

    def extend_variables(self, variables) -> "MultiSeries":
        """Reinterpret over a larger variable list (new variables exponent 0)."""
        variables = tuple(variables)
        pos = {v: i for i, v in enumerate(variables)}
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for v, ev in zip(self.variables, e):
                ne[pos[v]] = ev
            out[tuple(ne)] = c
        return MultiSeries(self.ring, variables, self.formal_cap, self.u_cap, out)

    def truncate_formal(self, cap: int) -> "MultiSeries":
        """Tighten the formal cap (drops terms of higher total formal degree)."""
        return MultiSeries(self.ring, self.variables, cap, self.u_cap, self.terms)

    def formal_slice(self, degree: int) -> "MultiSeries":
        """The homogeneous part of the given total formal degree."""
        return self._wrap(
            {e: c for e, c in self.terms.items() if self.formal_degree(e) == degree}
        )

    def map_coefficients(self, fn, ring) -> "MultiSeries":
        out = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not ring.is_zero(nc):
                out[e] = nc
        return MultiSeries(ring, self.variables, self.formal_cap, self.u_cap, out)

    # -- reversion -------------------------------------------------------------

    def _formal_variable_of(self) -> str:
        names = set()
        for e in self.terms:
            for i in self._formal_idx:
                if e[i]:
                    names.add(self.variables[i])
        if len(names) != 1:
            raise NonUnitLinearCoefficient(
                f"reversion needs a univariate series, found formal variables {sorted(names)}"
            )
        return names.pop()

    def reversion(self) -> "MultiSeries":
        """Compositional inverse of a univariate series with zero constant term
        and invertible *scalar* linear coefficient.

        Returns r with self(r(x)) = x = r(self(x)) up to the caps.
        """
        if not self.ring.is_zero(self.constant_term()):
            raise NonzeroConstantTerm("reversion needs zero constant term")
        var = self._formal_variable_of()
        vi = self.variables.index(var)
        lin_exp = tuple(1 if i == vi else 0 for i in range(len(self.variables)))
        # Any x^1 u^e term with e != 0 would make the linear coefficient a
        # non-scalar; the construction here only needs scalar units.
        for e in self.terms:
            if e[vi] == 1 and self.formal_degree(e) == 1 and sum(e) > 1:
                raise NonUnitLinearCoefficient(
                    "linear coefficient mixes u-variables; not a scalar unit"
                )
        lin = self.terms.get(lin_exp, self.ring.zero)
        try:
            lin_inv = self.ring.inv(lin)
        except ZeroDivisionError:
            raise NonUnitLinearCoefficient("linear coefficient is zero") from None

        x = MultiSeries.variable(self.ring, self.variables, var, self.formal_cap, self.u_cap)
        r = x.scale(lin_inv)
        for degree in range(2, self.formal_cap + 1):
            defect = self.compose({var: r}) - x
            slice_ = defect.formal_slice(degree)
            if slice_.is_zero():
                continue
            r = r - slice_.scale(lin_inv)
        return r

    # -- canonical order and rendering ----------------------------------------

    def canonical_terms(self):
        """Terms sorted by (total formal degree, exponent tuple)."""
        return sorted(
            self.terms.items(), key=lambda item: (self.formal_degree(item[0]), item[0])
        )

    def render(self) -> str:
        """Canonical text form, e.g. ``x + y + 2*u1*x*y``."""
        parts = []
        for e, c in self.canonical_terms():
            factors = []
            for v, ev in zip(self.variables, e):
                if ev == 1:
                    factors.append(v)
                elif ev > 1:
                    factors.append(f"{v}^{ev}")
            cs = str(c)
            if "/" in cs or " " in cs or "+" in cs:
                cs = f"({cs})"
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return " + ".join(parts) if parts else "0"

    def to_payload(self) -> list:
        """JSON-safe serialization through the canonical term order."""
        return [[list(e), str(c)] for e, c in self.canonical_terms()]

    @classmethod
    def from_payload(cls, ring, variables, formal_cap, u_cap, payload, parse_scalar):
        terms = {tuple(e): parse_scalar(s) for e, s in payload}
        return cls(ring, variables, formal_cap, u_cap, terms)

    def __repr__(self):
        return f"MultiSeries({self.render()})"
