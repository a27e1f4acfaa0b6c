"""Truncated multivariate polynomial/series arithmetic over the rationals.

A :class:`MultiSeries` stores a sparse map from exponent tuples to exact
rational coefficients, each a ``Fraction`` or an ``int``.  Variables named
among ``x y z a`` are formal; a series keeps only the terms of total formal
degree <= ``formal_cap``, i.e. it is an element of
Q[u][[formal vars]] / (formal vars)^(cap+1).  Every other variable
(conventionally ``u1..un`` or ``u``) is a coefficient variable and is never
truncated.

Truncation is applied eagerly after every arithmetic step; since all
downstream claims are congruences modulo the cap, correctness is unaffected
and intermediate sizes stay bounded.  The product never forms a pair whose
formal degrees sum past the cap.

Series live in the exact-rational stage, which hands residues mod p out as
plain int grids (``fgl.reduce_series``), never as series over F_p.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import add, itemgetter

from .errors import (
    NegativePower,
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    VariableMismatch,
)

FORMAL_NAMES = ("x", "y", "z", "a")


class MultiSeries:
    """Sparse truncated series; immutable, safe to share."""

    __slots__ = ("variables", "formal_cap", "terms", "_formal_idx")

    def __init__(self, variables, formal_cap, terms):
        self.variables = tuple(variables)
        self.formal_cap = formal_cap
        self._formal_idx = tuple(
            i for i, v in enumerate(self.variables) if v in FORMAL_NAMES
        )
        self.terms = {
            e: c
            for e, c in terms.items()
            if c and self.formal_degree(e) <= formal_cap
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, formal_cap) -> "MultiSeries":
        return cls(variables, formal_cap, {})

    @classmethod
    def constant(cls, c, variables, formal_cap) -> "MultiSeries":
        e = (0,) * len(tuple(variables))
        return cls(variables, formal_cap, {e: c})

    @classmethod
    def one(cls, variables, formal_cap) -> "MultiSeries":
        return cls.constant(Fraction(1), variables, formal_cap)

    @classmethod
    def variable(cls, variables, name, formal_cap) -> "MultiSeries":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, formal_cap, {tuple(e): Fraction(1)})

    def _wrap(self, terms) -> "MultiSeries":
        """A series over this one's variables from terms already within the
        formal cap, so only zero coefficients are dropped."""
        out = object.__new__(MultiSeries)
        out.variables, out.formal_cap = self.variables, self.formal_cap
        out._formal_idx = self._formal_idx
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def formal_degree(self, exps) -> int:
        return sum(exps[i] for i in self._formal_idx)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "MultiSeries"):
        if self.variables != other.variables or self.formal_cap != other.formal_cap:
            raise VariableMismatch(
                f"incompatible series: {self.variables}/{self.formal_cap}"
                f" vs {other.variables}/{other.formal_cap}"
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
        deg = self.formal_degree
        right = sorted(((deg(e), e, c) for e, c in other.terms.items()), key=itemgetter(0))
        right_degs = [d for d, _, _ in right]
        out: dict = {}
        for e1, c1 in self.terms.items():
            # Pairs past the remaining room would be truncated away: skip them.
            stop = bisect_right(right_degs, self.formal_cap - deg(e1))
            for _, e2, c2 in right[:stop]:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                if e in out:
                    out[e] = out[e] + c
                else:
                    out[e] = c
        return self._wrap(out)

    def __pow__(self, n: int) -> "MultiSeries":
        if n < 0:
            raise NegativePower(f"power {n} of a series")
        result = MultiSeries.one(self.variables, self.formal_cap)
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
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- access -------------------------------------------------------------

    def coefficient(self, **exps):
        """Scalar coefficient of the monomial with the named exponents."""
        e = tuple(exps.get(v, 0) for v in self.variables)
        return self.terms.get(e, Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    # -- substitution ---------------------------------------------------------

    def compose(self, substitutions: dict) -> "MultiSeries":
        """Substitute series for formal variables.

        ``substitutions`` maps formal variable names to MultiSeries over a
        common target variable list; unsubstituted variables (formal or u)
        pass through and must exist in the target.  Every substituted series
        must have zero constant term, otherwise the truncated composition
        would not be well defined.

        Terms that share their substituted exponents are summed into one
        coefficient series first, so each product of powers is formed once
        per exponent pattern; each power s^e is built once, as s^(e-1)*s.
        """
        if substitutions:
            target = next(iter(substitutions.values()))
        else:
            target = self
        t_vars, t_fcap = target.variables, target.formal_cap
        for name, s in substitutions.items():
            if name not in self.variables or name not in FORMAL_NAMES:
                raise VariableMismatch(f"{name} is not a formal variable of this series")
            if (s.variables, s.formal_cap) != (t_vars, t_fcap):
                raise VariableMismatch("substituted series disagree on variables/caps")
            if s.constant_term():
                raise NonzeroConstantTerm(f"substitution for {name} has a constant term")

        pos = {v: i for i, v in enumerate(t_vars)}
        subs = [name for name in self.variables if name in substitutions]
        # Substituted exponents -> {starting monomial over t_vars: scalar}.
        groups: dict = {}
        for exps, c in self.terms.items():
            key = []
            start = [0] * len(t_vars)
            for name, e in zip(self.variables, exps):
                if name in substitutions:
                    key.append(e)
                elif e:
                    if name not in pos:
                        raise VariableMismatch(f"variable {name} missing from target variables")
                    start[pos[name]] = e
            groups.setdefault(tuple(key), {})[tuple(start)] = c

        powers = {name: [s] for name, s in substitutions.items()}  # s^1, s^2, ...
        out: dict = {}
        for key, coeffs in groups.items():
            term = MultiSeries(t_vars, t_fcap, coeffs)
            for name, e in zip(subs, key):
                if e:
                    row = powers[name]
                    while len(row) < e:
                        row.append(row[-1] * row[0])
                    term = term * row[e - 1]
            for e, c in term.terms.items():
                out[e] = out[e] + c if e in out else c
        return MultiSeries(t_vars, t_fcap, out)

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
        return MultiSeries(tuple(self.variables[i] for i in keep), self.formal_cap, out)

    def rename_variables(self, mapping: dict) -> "MultiSeries":
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(new_vars)) != len(new_vars):
            raise VariableMismatch("renaming collides variable names")
        return MultiSeries(new_vars, self.formal_cap, self.terms)

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
        return MultiSeries(variables, self.formal_cap, out)

    def truncate_formal(self, cap: int) -> "MultiSeries":
        """Tighten the formal cap (drops terms of higher total formal degree)."""
        return MultiSeries(self.variables, cap, self.terms)

    def formal_slice(self, degree: int) -> "MultiSeries":
        """The homogeneous part of the given total formal degree."""
        return self._wrap(
            {e: c for e, c in self.terms.items() if self.formal_degree(e) == degree}
        )

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
        if self.constant_term():
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
        lin = self.terms.get(lin_exp, 0)
        if not lin:
            raise NonUnitLinearCoefficient("linear coefficient is zero")
        lin_inv = Fraction(1) / lin

        x = MultiSeries.variable(self.variables, var, self.formal_cap)
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

    def __repr__(self):
        return f"MultiSeries({self.render()})"
