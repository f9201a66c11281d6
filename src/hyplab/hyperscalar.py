"""Hyperbolic and bicomplex scalar arithmetic in idempotent coordinates.

A bicomplex number Z = w1 + j*w2 (w1, w2 complex in i) splits over the
idempotents e1 = (1+k)/2, e2 = (1-k)/2 as Z = e1*z1 + e2*z2 with
z1 = w1 - i*w2 and z2 = w1 + i*w2.  In that basis multiplication, norms,
and inversion all act componentwise, so the pair (z1, z2) is the canonical
internal representation throughout the library; cartesian forms are views.

Hyperbolic numbers are the real subalgebra generated by k and are stored
the same way, as the pair of real idempotent coefficients.  Norm values
live in the nonnegative cone ``DPlus``, which carries the partial order
``alpha <= beta  iff  beta - alpha`` has both components nonnegative.

All types here are immutable values on the ``Frozen`` base; every
operation is pure.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import InvalidInput, ZeroDivisor

#: Absolute floor below which an idempotent component counts as zero for
#: invertibility.  The zero-divisor dichotomy is exact in the algebra;
#: floating point needs a subnormal guard.
ZERO_DIVISOR_TOL = 1e-300


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInput(f"non-finite component {v!r} rejected")


class Record:
    """A record of the fields ``_fields``, built from keywords, compared and
    printed as a dataclass is; unhashable unless a subclass says otherwise."""

    __slots__ = ()
    _fields = ()  # not annotated: a report's annotations are its fields

    def __init__(self, **fields):
        if fields.keys() != {*self._fields}:
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}, got {tuple(fields)}")
        for name in self._fields:
            object.__setattr__(self, name, fields[name])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._key()))})"


class Frozen(Record):
    """Base of the immutable values: hashed, copied and pickled as their fields."""

    __slots__ = ()

    def _immutable(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()


class Hyperbolic(Frozen):
    """Hyperbolic scalar a1*e1 + a2*e2 stored by its idempotent coefficients."""

    __slots__ = _fields = ("a1", "a2")

    def __init__(self, a1: float, a2: float):
        a1, a2 = float(a1), float(a2)
        _require_finite(a1, a2)
        self._check(a1, a2)
        super().__init__(a1=a1, a2=a2)

    def _check(self, a1: float, a2: float) -> None:
        """Hook of a subclass that confines the components; ``__init__`` calls it."""

    @classmethod
    def from_cartesian(cls, b1: float, b2: float) -> "Hyperbolic":
        """Build b1 + k*b2 from cartesian coefficients."""
        return cls(b1 + b2, b1 - b2)

    def components(self) -> tuple[float, float]:
        return (self.a1, self.a2)

    def is_strictly_positive(self) -> bool:
        """True in the interior of the cone: both components > 0, exact."""
        return self.a1 > 0.0 and self.a2 > 0.0

    def _binary(self, other, op):
        if isinstance(other, Hyperbolic):
            cls = DPlus if isinstance(self, DPlus) and isinstance(other, DPlus) else Hyperbolic
            return cls(op(self.a1, other.a1), op(self.a2, other.a2))
        if isinstance(other, (int, float)):
            cls = DPlus if isinstance(self, DPlus) and other >= 0 else Hyperbolic
            return cls(op(self.a1, other), op(self.a2, other))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):  # a Hyperbolic and a DPlus can be the same algebra element
        return self.a1 == other.a1 and self.a2 == other.a2 if isinstance(other, Hyperbolic) else NotImplemented

    __hash__ = Frozen.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.a1!r}, {self.a2!r})"


class DPlus(Hyperbolic):
    """Hyperbolic scalar confined to the nonnegative cone.

    Every norm in the library takes values here.  Construction rejects
    negative components.
    """

    __slots__ = ()
    __repr__ = Frozen.__repr__

    def _check(self, a1: float, a2: float) -> None:
        if a1 < 0.0 or a2 < 0.0:
            raise InvalidInput(f"cone violation: DPlus components must be nonnegative, got ({a1}, {a2})")


class OrderRel(Enum):
    """Outcome of comparing two hyperbolic numbers under the cone order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def hyp_compare(alpha: Hyperbolic, beta: Hyperbolic) -> OrderRel:
    """Compare under the partial order induced by the nonnegative cone.

    LESS means beta - alpha lies in the cone and alpha != beta; GREATER is
    symmetric; INCOMPARABLE when neither difference is in the cone.
    Comparisons are exact (no tolerance).
    """
    d1 = beta.a1 - alpha.a1
    d2 = beta.a2 - alpha.a2
    if d1 == 0.0 and d2 == 0.0:
        return OrderRel.EQUAL
    if d1 >= 0.0 and d2 >= 0.0:
        return OrderRel.LESS
    if d1 <= 0.0 and d2 <= 0.0:
        return OrderRel.GREATER
    return OrderRel.INCOMPARABLE


def hyp_leq(alpha: Hyperbolic, beta: Hyperbolic) -> bool:
    """True when alpha <= beta in the cone order."""
    return hyp_compare(alpha, beta) in (OrderRel.LESS, OrderRel.EQUAL)


def hyp_abs(alpha: Hyperbolic) -> DPlus:
    """Componentwise absolute value |alpha|_k; fixes the cone pointwise."""
    return DPlus(abs(alpha.a1), abs(alpha.a2))


class Bicomplex(Frozen):
    """Bicomplex scalar stored as its two complex idempotent components."""

    __slots__ = _fields = ("z1", "z2")

    def __init__(self, z1: complex, z2: complex):
        z1, z2 = complex(z1), complex(z2)
        _require_finite(z1.real, z1.imag, z2.real, z2.imag)
        super().__init__(z1=z1, z2=z2)

    @classmethod
    def from_cartesian(cls, w1: complex, w2: complex) -> "Bicomplex":
        """Build w1 + j*w2; components are z1 = w1 - i*w2, z2 = w1 + i*w2."""
        w1 = complex(w1)
        w2 = complex(w2)
        return cls(w1 - 1j * w2, w1 + 1j * w2)

    @classmethod
    def from_reals(cls, a: float, b: float, c: float, d: float) -> "Bicomplex":
        """Build a + b*i + c*j + d*k from the four real coefficients."""
        return cls.from_cartesian(complex(a, b), complex(c, d))

    @classmethod
    def from_hyperbolic(cls, alpha: Hyperbolic) -> "Bicomplex":
        return cls(complex(alpha.a1), complex(alpha.a2))

    def to_cartesian(self) -> tuple[complex, complex]:
        """Inverse of ``from_cartesian``: (w1, w2) with w1=(z1+z2)/2, w2=i(z1-z2)/2."""
        w1 = 0.5 * (self.z1 + self.z2)
        w2 = 0.5j * (self.z1 - self.z2)
        if not (cmath.isfinite(w1) and cmath.isfinite(w2)):  # halve first near the float limit
            w1 = 0.5 * self.z1 + 0.5 * self.z2
            w2 = 0.5j * self.z1 - 0.5j * self.z2
        return (w1, w2)

    def to_reals(self) -> tuple[float, float, float, float]:
        """The four real coefficients of 1, i, j, k."""
        w1, w2 = self.to_cartesian()
        return (w1.real, w1.imag, w2.real, w2.imag)

    def __add__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex(self.z1 + other.z1, self.z2 + other.z2)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Bicomplex):
            return Bicomplex(self.z1 * other.z1, self.z2 * other.z2)
        if isinstance(other, (int, float, complex)):
            return Bicomplex(other * self.z1, other * self.z2)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self) -> str:
        return f"Bicomplex({self.z1!r}, {self.z2!r})"


ONE = Bicomplex(1.0, 1.0)
E1 = Bicomplex(1.0, 0.0)
E2 = Bicomplex(0.0, 1.0)
UNIT_I = Bicomplex(1j, 1j)
UNIT_J = Bicomplex(-1j, 1j)
UNIT_K = Bicomplex(1.0, -1.0)


def bc_mul(z: Bicomplex, w: Bicomplex) -> Bicomplex:
    """Product: componentwise in idempotent coordinates."""
    return z * w


def _reciprocal(w: complex) -> complex:
    """1/w, also where ``complex`` division overflows its denominator and
    returns 0 (which 1/w never is): 1/w = 0.5/(w/2)."""
    return 1.0 / w or 0.5 / complex(0.5 * w.real, 0.5 * w.imag)


def bc_inverse(z: Bicomplex) -> Bicomplex:
    """Componentwise reciprocal; fails on zero divisors and zero.

    A component below ``ZERO_DIVISOR_TOL`` in modulus counts as zero; one
    beyond the float range is rejected as ``knorm`` rejects it.
    """
    m = knorm(z)
    if m.a1 <= ZERO_DIVISOR_TOL or m.a2 <= ZERO_DIVISOR_TOL:
        raise ZeroDivisor(f"not invertible: idempotent component moduli ({m.a1}, {m.a2})")
    return Bicomplex(_reciprocal(z.z1), _reciprocal(z.z2))


def knorm(z: Bicomplex) -> DPlus:
    """Hyperbolic-valued norm e1*|z1| + e2*|z2|; zero iff z is zero.

    A modulus beyond the float range is rejected as ``InvalidInput``.
    """
    try:
        return DPlus(abs(z.z1), abs(z.z2))
    except OverflowError:  # a modulus beyond the float range, both parts finite
        raise InvalidInput("non-finite component inf rejected") from None


def euclid_norm(z: Bicomplex) -> float:
    """Euclidean modulus of the four-real view, sqrt((|z1|^2+|z2|^2)/2).

    Each component of ``knorm(z)`` is bounded by sqrt(2) times this value.
    ``math.hypot`` rescales, so no square overflows or underflows.
    """
    return math.hypot(z.z1.real, z.z1.imag, z.z2.real, z.z2.imag) / math.sqrt(2.0)
