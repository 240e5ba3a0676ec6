"""Truncated polynomial ring Q[g]/(g^5) and Chern-class bookkeeping.

A cohomology class of a fourfold whose even cohomology is generated by a
single degree-two class g is five exact rational coefficients
(q0, q1, q2, q3, q4) standing for q0 + q1*g + ... + q4*g^4. The top
pairing against the fundamental class multiplies the g^4 coefficient by
the degree d = <g^4, [X]>.

A case in the elimination argument is the tuple (r, k, c1c3, euler,
geometry): total Chern class 1 + r*g + k*r^2*g^2 + (c1c3/(r*d))*g^3 +
(euler/d)*g^4. The ambient space is always P^8, restricted along an
embedding with g = m * (hyperplane class), so the pulled-back total
Chern class is (1 + m*g)^9 truncated. normal_c4_polynomial computes
c4 of the normal bundle on integer numerators over one common
denominator. No command builds a GradedClass: it and its inverse are
the plain Fraction form that the tests hold the integer paths to.

Every value type of the package is a frozen record made by record below,
which stands in for a frozen dataclass without importing dataclasses.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter, mul

__all__ = [
    "AMBIENT_BINOMIALS",
    "GradedClass",
    "Geometry",
    "ChernCase",
    "CharNumbers",
    "graded",
    "top_pairing",
    "char_number_table",
    "chern_from_case",
    "ambient_pullback",
    "normal_c4_polynomial",
]

# Binomial coefficients C(9, j) for j = 0..4: the truncation of (1+t)^9.
AMBIENT_BINOMIALS = (1, 9, 36, 84, 126)

_TRUNC = 5


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")


def _values(rec):
    """rec's fields in order, as a tuple even when it has one field."""
    values = rec._getter(rec)
    return values if len(rec._fields) > 1 else (values,)


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, _values(self)))
    return f"{type(self).__qualname__}({shown})"


def record(cls):
    """Make cls a frozen record, as @dataclass(frozen=True) would.

    Its annotated names are its fields, in order, and a field's class
    attribute, where it has one, is its default. The generated __init__
    takes them positionally or by keyword and then runs the class's
    __post_init__, if any, which sets an attribute with
    object.__setattr__. == holds between records of one class whose
    fields are equal, and the hash is the hash of the tuple of fields.
    Assigning or deleting an attribute raises AttributeError. Only
    __init__ is compiled, once per class, as dataclasses and namedtuple
    do, so construction costs no loop. ==, hash and repr are functions
    shared by every record; they read the fields through the class's
    attrgetter, which, unlike a function, does not bind to the instance.
    """
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    if not all(n in cls.__dict__ for n in names[len(names) - len(defaults) :]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one")
    sets = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {}
    exec(
        f"def __init__(self, {', '.join(names)}):{sets}{post}",
        {"_set": object.__setattr__},
        namespace,
    )
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls._fields = names
    cls._getter = attrgetter(*names)
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed. The copy
    is built by __init__, so its checks run again, and a name that is
    not a field raises TypeError."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float coefficients are not exact; pass int/Fraction/str")
    return Fraction(x)


@record
class GradedClass:
    """An element of Q[g]/(g^5), coefficients indexed by power of g."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.coeffs) != _TRUNC:
            raise ValueError("a graded class has exactly five coefficients")

    def __mul__(self, other: "GradedClass") -> "GradedClass":
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * _TRUNC
        for i in range(_TRUNC):
            if a[i] == 0:
                continue
            for j in range(_TRUNC - i):
                out[i + j] += a[i] * b[j]
        return GradedClass(tuple(out))

    def inverse(self) -> "GradedClass":
        """Multiplicative inverse; requires a unit constant term.

        Degree-by-degree back substitution: with u0*v0 = 1 fixed, each
        v_n is determined by sum_{i=0..n} u_i v_{n-i} = 0.
        """
        u = self.coeffs
        if u[0] == 0:
            raise ValueError("class with zero constant term is not invertible")
        v = [Fraction(1) / u[0]]
        for n in range(1, _TRUNC):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += u[i] * v[n - i]
            v.append(-acc / u[0])
        return GradedClass(tuple(v))


def graded(q0, q1, q2, q3, q4) -> GradedClass:
    return GradedClass((_frac(q0), _frac(q1), _frac(q2), _frac(q3), _frac(q4)))


# Lattice model -> the names of its degree parameters, in order.
# rank1: g^2 = e*x for a generator x, degree e^2.
# rank2: g^2 = a*x + b*y, degree a^2 + b^2.
# free:  the degree d itself is the parameter.
LATTICE_PARAMS = {"rank1": ("e",), "rank2": ("a", "b"), "free": ("d",)}


def lattice_degree(model: str, values) -> int:
    """The degree at parameter values of a lattice model."""
    return values[0] if model == "free" else sum(map(mul, values, values))


@record
class Geometry:
    """A point of a degree lattice: its model and its parameter values,
    in the order LATTICE_PARAMS names them, which is also its sort key.
    Its degree is computed from them and is not a field."""

    model: str
    sort_params: tuple[int, ...]

    def __post_init__(self):
        names = LATTICE_PARAMS.get(self.model)
        if names is None:
            raise ValueError(f"unknown lattice model {self.model!r}")
        values = self.sort_params
        if len(values) != len(names) or min(values) < 0:
            raise ValueError(
                f"{self.model} geometry needs non-negative {', '.join(names)}"
            )
        degree = lattice_degree(self.model, values)
        if degree < 1:
            raise ValueError("degree must be positive")
        object.__setattr__(self, "degree", degree)

    @property
    def params(self) -> dict[str, int]:
        return dict(zip(LATTICE_PARAMS[self.model], self.sort_params))


@record
class ChernCase:
    """One candidate fourfold: first Chern coefficient r, second-Chern
    ratio k = c2/c1^2, the pairings <c1 c3> and <c4> = euler, and the
    degree geometry."""

    r: int
    k: Fraction
    c1c3: int
    euler: int
    geometry: Geometry

    def __post_init__(self):
        if self.r == 0:
            raise ValueError("r must be nonzero")


@record
class CharNumbers:
    """The five Chern numbers of a case, all exact integers."""

    c1_4: int
    c1c3: int
    c1_2c2: int
    c2_2: int
    c4: int


def char_number_table(case: ChernCase) -> CharNumbers:
    """Chern numbers of a case: <c1^4> = r^4 d, <c1^2 c2> = k r^4 d,
    <c2^2> = k^2 r^4 d, and <c1 c3> and <c4> = euler as the case gives them.

    With k = p/q in lowest terms both are integers exactly when q^2
    divides r^4 d.
    """
    c14 = case.r**4 * case.geometry.degree
    p, q = case.k.numerator, case.k.denominator
    if c14 % (q * q):
        raise ArithmeticError(
            f"non-integral Chern number for {case.geometry.params}, r={case.r}, "
            f"k={case.k}: the divisibility rule should have excluded this"
        )
    return CharNumbers(
        c1_4=c14,
        c1c3=case.c1c3,
        c1_2c2=p * (c14 // q),
        c2_2=p * p * (c14 // (q * q)),
        c4=case.euler,
    )


def top_pairing(u: GradedClass, geom: Geometry) -> Fraction:
    """<u, [X]> = (g^4 coefficient of u) * degree."""
    return u.coeffs[4] * geom.degree


def chern_from_case(case: ChernCase) -> GradedClass:
    """Total Chern class of a case.

    The g^3 coefficient is pinned by <c1 c3> = r * coeff * d and the g^4
    coefficient by <c4> = euler.
    """
    r, k, d = case.r, case.k, case.geometry.degree
    return graded(
        1,
        r,
        k * r * r,
        Fraction(case.c1c3, r * d),
        Fraction(case.euler, d),
    )


def ambient_pullback(m: int) -> GradedClass:
    """Restriction of the total Chern class of P^8, (1 + m*g)^9 truncated."""
    if m < 1:
        raise ValueError("the hyperplane multiple m must be a positive integer")
    return GradedClass(
        tuple(Fraction(AMBIENT_BINOMIALS[j] * m**j) for j in range(_TRUNC))
    )


def normal_c4_polynomial(case: ChernCase) -> tuple[Fraction, ...]:
    """<c4 of the normal bundle> as a polynomial in the multiple m.

    c(N) = (restricted ambient class) * c(X)^-1; its degree-4 part picks
    up C(9, j) * m^j from the ambient factor against the degree-(4-j)
    inverse coefficient. Returned ascending: index = power of m. The
    degree-4 leading coefficient is always 126*d.

    The inverse is computed on integer numerators. With k = p/q and
    L = lcm(q, |r| d), c(X) = sum (U_i / L) g^i for the integers
    U = (L, r L, p r^2 L/q, c1c3 L/(r d), euler L/d), and then
    c(X)^-1 = sum (V_n / L^n) g^n with V_0 = 1 and
    V_n = -sum_{i=1..n} U_i V_{n-i} L^(i-1). The coefficient of m^j is
    C(9, j) d V_(4-j) / L^(4-j), one Fraction each.
    """
    r, k, d = case.r, case.k, case.geometry.degree
    den = lcm(k.denominator, r * d)  # L
    u = (  # U_1..U_4; U_0 = L
        r * den,
        k.numerator * r * r * (den // k.denominator),
        case.c1c3 * (den // (r * d)),
        case.euler * (den // d),
    )
    powers = [den**n for n in range(_TRUNC)]
    v = [1]
    for n in range(1, _TRUNC):
        v.append(-sum(u[i - 1] * v[n - i] * powers[i - 1] for i in range(1, n + 1)))
    return tuple(
        Fraction(AMBIENT_BINOMIALS[j] * d * v[4 - j], powers[4 - j])
        for j in range(_TRUNC)
    )
