"""Coefficient fields: exact rationals and finite fields F_{p^e}.

A finite field is represented in a polynomial basis over F_p with an explicit
monic irreducible modulus of degree e.  An immutable `FFElement` holds the
code (below) of c_0 + c_1*g + ... + c_{e-1}*g^{e-1}, g the residue of x, and
`vec` is the view (c_0, ..., c_{e-1}).  A sum, a negation ((p - 1) * code) or
a product of two codes is one int operation reduced by one
`decode([value], 1, 1)`; `_powers_of(codes, n)` is the one exponentiation
(the builtin pow when e = 1, square-and-multiply on the whole list
otherwise), and inverses follow Fermat: c^-1 = c^(q-2).

Rational coefficients simply are fractions.Fraction values, already exact
and canonical.

A series stores each coefficient as its field's code (`code(c)`, and
`element(k)` back): the residue over F_p, the vector's digits in e
little-endian `_fold(1)`-byte slots over F_{p^e} (its own n = 1 kernel
encoding), and the Fraction itself over Q.  Codes are canonical, and the
code of 1 is 1.  The kernel side is a pair on lists of codes:
`encode(codes, n)` gives ints and a common denominator such that integer
sums of at most n pairwise products of them stay exact, and
`decode(values, den, n)` maps such sums back to codes.  Over F_p the
encoding is the code; over Q it is numerators over a common denominator;
over F_{p^e} `encode` widens the slots to `_fold(n)` bytes, where no slot of
a sum of n products carries, by extended-slice assignment on one bytearray,
and `decode` folds each value's slots of degree e and up into the low e by
multiply-adds with x^e, ..., x^(2e-2) mod the modulus, takes all the low
slots mod p in one pass and reads each code with one `int.from_bytes`.
`frobenius_codes` is c |-> c^(p^b) on codes, `_powers_of` at the exponent
p^(b mod e): the identity over F_p, and over F_{p^e} whenever e divides b.

Text is one codec per field on codes: `parse_code` reads back exactly what
`format_code` writes ("-3/4", "5", "g^2+2*g+1") and nothing else, and
`FieldCtx.format_coeff`/`parse_coeff` wrap it.  `make_field` reads exactly
what `spec_string` writes, so ktq's JSON never reaches the grammar.

Exhaustive operations (element enumeration, root search, surjectivity
checks) are restricted to q <= 2**20.  Larger prime fields still construct,
but the exhaustive oracles refuse to run on them.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm
from operator import mul

from .errors import FieldError, Record

EXHAUSTIVE_BOUND = 1 << 20
MAX_EXTENSION_DEGREE = 12
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)(/([2-9]|[1-9][0-9]+))?")  # no "-0", "007", "/1"


# ----------------------------------------------------------------- primality


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; this witness set is exact far beyond 2**64.
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ------------------------------------------------- polynomials over F_p
# Tuples of ints in [0, p), ascending degree, no trailing zeros.


def _ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _pmod(a, b, p):
    """a mod b over F_p, for a monic b: each step cancels the top term."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        f = a[-1]
        if f:
            shift = len(a) - 1 - db
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - f * bi) % p
        a.pop()
    return _ptrim(a)


def _base_p_vectors(p, n):
    """All n-digit vectors over 0..p-1 in counting order, lowest digit first."""
    return (digits[::-1] for digits in product(range(p), repeat=n))


def _monic_polys(degree, p):
    return (v + (1,) for v in _base_p_vectors(p, degree))


def _is_irreducible(mod, p):
    return all(_pmod(mod, cand, p) for d in range(1, (len(mod) - 1) // 2 + 1)
               for cand in _monic_polys(d, p))


_ITEM = {array(t).itemsize: t for t in "QLIHB"}  # array typecodes by item size


def _slots(data, w):
    """An array of w-byte items (w <= 8) of ints or little-endian bytes; tobytes: little-endian."""
    items = array(_ITEM[w], data)
    if sys.byteorder == "big":
        items.byteswap()
    return items


# ------------------------------------------------------------ field contexts


class FieldCtx:
    """Common base for coefficient-field descriptors."""

    characteristic: int

    def code(self, c):
        """The code a series stores for coefficient c (c itself by default)."""
        return c

    def element(self, k):
        return k

    def format_coeff(self, c) -> str:
        return self.format_code(self.code(self.coerce(c)))

    def parse_coeff(self, text: str):
        return self.element(self.parse_code(text))


class RationalField(FieldCtx):
    """The exact rational numbers, characteristic 0."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"

    def spec_string(self):
        return "Q"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldError(f"not a rational coefficient: {value!r}")

    def encode(self, codes, n):
        """Numerators over the coefficients' common denominator: (ints, den)."""
        den = lcm(*(c.denominator for c in codes))
        return [c.numerator * (den // c.denominator) for c in codes], den

    def decode(self, values, den, n):
        return [Fraction(v, den) for v in values]

    def format_code(self, k: Fraction) -> str:
        try:
            return str(k)
        except ValueError as exc:  # CPython's bound on int-to-str conversion
            raise FieldError(
                f"coefficient too large to print: over {sys.get_int_max_str_digits()}"
                " decimal digits, the interpreter's integer-to-string limit") from exc

    def parse_code(self, text: str) -> Fraction:
        """The inverse of format_code: an optional "-", digits and an
        optional "/d" with d > 1, in lowest terms."""
        num, _, den = text.partition("/")
        try:
            if _RATIONAL.fullmatch(text) and gcd(n := int(num), d := int(den or 1)) == 1:
                return Fraction(n, d)
        except ValueError:  # the digit limit
            pass
        raise FieldError(f"bad rational literal {text!r}")

    def nth_roots(self, c, n: int):
        """Rational n-th roots of c.  Raises if c has none in Q."""
        c = self.coerce(c)
        if n < 1:
            raise FieldError("root order must be >= 1")
        if n == 1:
            return [c]
        if c == 0:
            return [Fraction(0)]
        if c < 0 and n % 2 == 0:
            raise FieldError(f"{self.format_coeff(c)} has no rational {n}-th root")
        sign = -1 if c < 0 else 1
        num = _int_nth_root(abs(c.numerator), n)
        den = _int_nth_root(c.denominator, n)
        if num is None or den is None:
            raise FieldError(f"{self.format_coeff(c)} has no rational {n}-th root")
        r = Fraction(sign * num, den)
        if n % 2 == 0:
            return [r, -r]
        return [r]


def _int_nth_root(m: int, n: int):
    """Exact integer n-th root of m >= 0, or None."""
    if m in (0, 1):
        return m
    lo, hi = 1, 1 << ((m.bit_length() + n - 1) // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == m else None


class FFElement:
    """An element of a finite field, held as its field's code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def vec(self):
        """The coefficient vector (c_0, ..., c_{e-1}) over F_p."""
        return tuple(self.field._digits(self.code))

    def _peer(self, other):
        if isinstance(other, (FFElement, int)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        f = self.field
        return FFElement(f, f.decode([self.code + o.code], 1, 1)[0])

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FFElement(f, f.decode([(f.p - 1) * self.code], 1, 1)[0])

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        f = self.field
        return FFElement(f, f.decode([self.code * o.code], 1, 1)[0])

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise FieldError("division by zero in finite field")
        return self ** (self.field.q - 2)  # Fermat: c^(q-1) = 1

    def __truediv__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return FFElement(self.field, self.field._powers_of([self.code], n)[0])

    def __eq__(self, other):
        if not isinstance(other, FFElement):
            return NotImplemented
        return self.code == other.code and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.code))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        return self.field.format_coeff(self)

    def __repr__(self):
        return f"<{self} in {self.field.spec_string()}>"


class FiniteField(FieldCtx):
    """F_{p^e} in a polynomial basis with an explicit irreducible modulus.

    When no modulus is supplied, the first monic irreducible of degree e in
    lexicographic coefficient order (constant coefficient varying fastest) is
    chosen, which makes the default deterministic and reproducible.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if e < 1 or e > MAX_EXTENSION_DEGREE:
            raise FieldError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
        q = p ** e
        if q.bit_length() > 63:
            raise FieldError("field size exceeds machine-word bound")
        self.p, self.e, self.q = p, e, q
        if modulus is None:
            modulus = self._default_modulus(p, e)
        else:
            modulus = _ptrim(tuple(c % p for c in modulus))
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree e")
            if p ** (e // 2) > EXHAUSTIVE_BOUND:
                raise FieldError("modulus verification exceeds desk-scale bound")
            if not _is_irreducible(modulus, p):
                raise FieldError("modulus is reducible")
        self.modulus = modulus
        # A product slot sums e products below p; the fold adds e - 1 slots times p - 1.
        self._bound = e * (p - 1) ** 2 * (1 + (e - 1) * (p - 1))
        self._folds, self._tables = {}, {}  # n -> _fold(n); its table by width
        self._c = self._fold(1)[0] if e > 1 else 8  # code slot bytes; 8 hold a residue
        self._mod = (bytes(range(min(p, 256))) * (255 // p + 1))[:256]  # byte d -> d % p
        self._gs = _powers("g", e)  # the texts of format_code's powers
        self.zero = FFElement(self, 0)
        self.one = FFElement(self, 1)
        self._element_cache = None

    @property
    def characteristic(self):
        return self.p

    @staticmethod
    def _default_modulus(p, e):
        if e == 1:
            return (0, 1)
        if p ** (e // 2) > EXHAUSTIVE_BOUND:
            raise FieldError("default modulus search exceeds desk-scale bound")
        for cand in _monic_polys(e, p):
            if _is_irreducible(cand, p):
                return cand
        raise FieldError("no irreducible modulus found")  # unreachable

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and other.p == self.p and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FiniteField({self.spec_string()!r})"

    def spec_string(self):
        """"F<q>:<modulus>", or "F<p>" for a prime field with the modulus x."""
        if self.modulus == (0, 1):
            return f"F{self.p}"
        return f"F{self.q}:{self.format_modulus()}"

    def format_modulus(self):
        return _format_poly(self.modulus, _powers("x", self.e + 1))

    def from_int(self, n: int) -> FFElement:
        return FFElement(self, n % self.p)

    @property
    def g(self) -> FFElement:
        if self.e < 2:
            raise FieldError("prime fields have no generator symbol g")
        return FFElement(self, 1 << 8 * self._c)

    def coerce(self, value):
        if isinstance(value, FFElement):
            if value.field is not self and value.field != self:
                raise FieldError("finite-field context mismatch")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise FieldError(f"not an element of {self.spec_string()}: {value!r}")

    def elements(self):
        """All q elements, in the fixed enumeration order 0, 1, ..., g, ..."""
        if self.q > EXHAUSTIVE_BOUND:
            raise FieldError("field too large for exhaustive enumeration")
        if self._element_cache is None:
            digits = [d for v in _base_p_vectors(self.p, self.e) for d in v]
            self._element_cache = tuple(FFElement(self, k) for k in self._codes(digits))
        return self._element_cache

    def frobenius(self, c: FFElement, b: int = 1) -> FFElement:
        """c^(p^b); negative b applies the inverse automorphism."""
        c = self.coerce(c)
        b %= self.e  # the Frobenius has order e on F_{p^e}
        return c ** self.p ** b

    def nth_roots(self, c, n: int):
        """All n-th roots of c, in enumeration order (may be empty)."""
        c = self.coerce(c)
        if n < 1:
            raise FieldError("root order must be >= 1")
        if not c:
            return [self.zero]
        els = self.elements()
        return [r for r, k in zip(els, self._powers_of([r.code for r in els], n)) if k == c.code]

    def _fold(self, n):
        """w, the least power-of-two slot bytes holding n * _bound (sums of n
        products), and the fold table: x^e, ..., x^(2e-2) mod the modulus."""
        if n not in self._folds:
            w = 1 << ((max(n, 1) * self._bound).bit_length() - 1 >> 3).bit_length()
            self._folds[n] = w, self._tables.get(w) or self._tables.setdefault(w, [
                sum(d << 8 * w * i for i, d in enumerate(_pmod((0,) * j + (1,), self.modulus, self.p)))
                for j in range(self.e, 2 * self.e - 1)])
        return self._folds[n]

    def _codes(self, digits):
        """The codes of consecutive e-digit vectors, digits below p."""
        buf, size = _slots(digits, self._c).tobytes(), self.e * self._c
        return [int.from_bytes(buf[i:i + size], "little") for i in range(0, len(buf), size)]

    def _digits(self, k):
        """The e digits of the code k, lowest degree first."""
        return _slots(k.to_bytes(self.e * self._c, "little"), self._c)

    def code(self, c):
        return c.code

    def element(self, k):
        return FFElement(self, k)

    def encode(self, codes, n):
        """The codes (e = 1) or their vectors widened to the slot bytes of
        `_fold(n)`, lowest degree in the lowest slot: (ints, 1)."""
        e, c, w = self.e, self._c, self._fold(n)[0]
        if e == 1 or w == c:
            return codes, 1
        buf = b"".join(map(int.to_bytes, codes, repeat(e * c), repeat("little")))
        wide = bytearray(len(codes) * e * w)
        for i in range(c):  # each slot's bytes, the rest zero
            wide[i::w] = buf[i::c]
        return [int.from_bytes(wide[i:i + e * w], "little") for i in range(0, len(wide), e * w)], 1

    def decode(self, values, den, n):
        """The codes standing for sums of at most n products of encoded
        values: slots of degree e and up fold into the low e, each taken mod p."""
        e, p = self.e, self.p
        if e == 1:
            return [v % p for v in values]
        w, fold = self._fold(n)
        s, low, top, folded = 8 * w, (1 << 8 * w * e) - 1, (1 << 8 * w) - 1, []
        for v in values:
            hi, v = v >> s * e, v & low
            for r in fold:
                if not hi:
                    break
                v += (hi & top) * r
                hi >>= s
            folded.append(v.to_bytes(e * w, "little"))
        if w == 1:  # and so c = 1: one table lookup a byte
            return [int.from_bytes(b.translate(self._mod), "little") for b in folded]
        buf = b"".join(folded)
        return self._codes([d % p for d in (_slots(buf, w) if w <= 8 else (
            int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)))])

    def _powers_of(self, codes, n):
        """The codes of c^n (n >= 0) for the codes of c: the builtin pow over
        F_p, else one square-and-multiply over the whole list, one `decode` a step."""
        if self.e == 1:
            return codes if n == 1 else [pow(k, n, self.p) for k in codes]
        out, dec = None, self.decode
        while n:
            if n & 1:
                out = codes if out is None else dec(list(map(mul, out, codes)), 1, 1)
            n >>= 1
            if n:
                codes = dec([k * k for k in codes], 1, 1)
        return [1] * len(codes) if out is None else out

    def frobenius_codes(self, codes, b):
        """The codes of c^(p^b) for the codes of c (b < 0: the inverse)."""
        return self._powers_of(codes, self.p ** (b % self.e))  # the Frobenius has order e

    def format_code(self, k: int) -> str:
        return str(k) if self.e == 1 else _format_poly(self._digits(k), self._gs)

    def parse_code(self, text: str) -> int:
        """The inverse of format_code: over F_p, str(k) for 0 <= k < p."""
        if self.e == 1 and text.isascii() and text.isdigit() and len(text) <= len(str(self.p)):
            if str(k := int(text)) == text and k < self.p:  # digits bounded before int()
                return k
        elif self.e > 1 and (vec := _parse_poly(text, "g", self._gs, self.p)) is not None:
            return self._codes(vec)[0]
        raise FieldError(f"not a coefficient of {self.spec_string()}: {text!r}")


def _powers(sym: str, n: int):
    """The texts of sym^i for i = n - 1, ..., 1, 0: ("g^2", "g", "1") for n = 3."""
    return tuple(f"{sym}^{i}" if i > 1 else sym if i else "1" for i in range(n - 1, -1, -1))


def _format_poly(coeffs, powers) -> str:
    """Ascending integer coefficients as text, highest power first, from
    powers = _powers(sym, len(coeffs)): (1, 2, 1) in "g" gives "g^2+2*g+1"."""
    parts = []
    for c, s in zip(reversed(coeffs), powers):
        if c:
            parts.append(s if c == 1 else f"{c}*{s}" if s != "1" else str(c))
    return "+".join(parts) if parts else "0"


def _parse_poly(text: str, sym: str, powers, p: int):
    """The inverse of _format_poly on len(powers) coefficients below p, with
    powers = _powers(sym, n): their tuple, or None for any text it does not
    write (the re-format check refuses it)."""
    n = len(powers)
    vec, width = [0] * n, len(str(max(n, p)))  # digits bounded before int()
    for part in text.split("+"):
        head, s, tail = part.partition(sym)
        c, i = (head[:-1] or "1", tail[1:] or "1") if s else (part, "0")
        if not all(d.isascii() and d.isdigit() and len(d) <= width for d in (c, i)) \
                or int(c) >= p or int(i) >= n:
            return None
        vec[int(i)] = int(c)
    return tuple(vec) if _format_poly(vec, powers) == text else None


def format_coeff(c) -> str:
    """A coefficient as text, formatted by its own field: an FFElement knows
    its field, and any other coefficient is rational."""
    return (c.field if isinstance(c, FFElement) else RationalField()).format_coeff(c)


def make_field(spec) -> FieldCtx:
    """The field whose spec_string is spec, like "Q", "F2" or "F9:x^2+1";
    user text such as "F9:x^2 + 1" goes through parsing.parse_modulus."""
    if isinstance(spec, FieldCtx):
        return spec
    if not isinstance(spec, str):
        raise FieldError(f"bad field spec {spec!r}")
    if spec.strip() in ("Q", "rationals"):
        return RationalField()
    p, e, mod_text = split_spec(spec)
    if mod_text is None:
        return FiniteField(p, e)
    modulus = _parse_poly(mod_text, "x", _powers("x", e + 1), p)  # the inverse of format_modulus
    if modulus is None:
        raise FieldError(f"not a modulus as spec_string writes it: {mod_text!r}")
    return FiniteField(p, e, modulus)


def split_spec(spec: str):
    """(p, e, modulus text or None) of a spec "F<q>" or "F<q>:<modulus>",
    with q = p^e below 2^63."""
    text, colon, mod_text = spec.strip().partition(":")
    if not text.startswith("F"):
        raise FieldError(f"bad field spec {spec!r}")
    try:
        q = int(text[1:])
    except ValueError:
        raise FieldError(f"bad field spec {spec!r}") from None
    if q.bit_length() > 63:  # FiniteField's bound, checked before the root search
        raise FieldError(f"{q} is not a prime power below 2^63")
    p, e = _prime_power_split(q)
    return p, e, mod_text if colon else None


def _prime_power_split(q: int):
    """(p, e) with q = p^e, found by a perfect-power test for each e."""
    for e in range(1, max(q, 2).bit_length()):
        p = _int_nth_root(q, e)
        if p is not None and _is_prime(p):
            return p, e
    raise FieldError(f"{q} is not a prime power")


# ------------------------------------------------------- additive polynomials


class AdditivePoly:
    """P(x) = sum a_i x^(p^i) over a finite field of characteristic p.

    The coefficient list runs a_0 .. a_n with a_n nonzero.  Over the
    rationals only the degenerate degree-one case P(x) = a_0 x exists,
    since x^(p^i) has no meaning without a positive characteristic.  It
    takes the same evaluation path: with only a_0, the sum is a_0 x^(p^0).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = [ctx.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            raise FieldError("the zero map is not an additive polynomial here")
        if ctx.characteristic == 0 and len(coeffs) > 1:
            raise FieldError(
                "additive polynomials of degree > 1 do not exist in characteristic 0")
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @property
    def p_degree(self) -> int:
        """n, where deg P = p^n."""
        return len(self.coeffs) - 1

    def __call__(self, c):
        ctx, c = self.ctx, self.ctx.coerce(c)
        return sum((a * (ctx.frobenius(c, i) if i else c) for i, a in enumerate(self.coeffs) if a),
                   ctx.zero)

    def preimage(self, c):
        """The first z in the field's enumeration order with P(z) = c, or
        None: an exhaustive search over the q elements.  Over Q, where P is
        the bijection a_0 x, it is c / a_0."""
        if self.ctx.characteristic == 0:
            return c / self.coeffs[0]
        return next((z for z in self.ctx.elements() if self(z) == c), None)

    def separable_part(self):
        """Write P = F^j o Q with Q separable; return (Q, j).

        F is the p-th power map.  The coefficients of Q are the p^(-j)-th
        Frobenius images of P's, so that applying F^j to Q(x) restores P(x).
        """
        j = next(i for i, a in enumerate(self.coeffs) if a)
        if j == 0:
            return self, 0
        ctx = self.ctx
        q_coeffs = [ctx.frobenius(a, -j) for a in self.coeffs[j:]]
        return AdditivePoly(ctx, q_coeffs), j

    def format(self) -> str:
        p = self.ctx.characteristic
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[i]
            if not a:
                continue
            deg = p ** i
            xp = "x" if deg == 1 else f"x^{deg}"
            if a == self.ctx.one:
                parts.append(xp)
            else:
                astr = self.ctx.format_coeff(a)
                if "+" in astr or "-" in astr[1:]:
                    astr = f"({astr})"
                parts.append(f"{astr}*{xp}")
        return "+".join(parts)

    def __eq__(self, other):
        return (isinstance(other, AdditivePoly)
                and other.ctx == self.ctx and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        return f"AdditivePoly({self.format()!r} over {self.ctx.spec_string()})"


class HypothesisAVerdict(Record):
    """Outcome of a surjectivity check for one additive polynomial."""

    __slots__ = ("satisfies", "witness", "poly")  # witness: None or a non-image element

    def __str__(self):
        if self.satisfies:
            return "Satisfies"
        return f"FAILS: witness b={format_coeff(self.witness)}"


def hypothesis_a_check(ctx: FieldCtx, P: AdditivePoly = None) -> HypothesisAVerdict:
    """Check surjectivity of P on ctx (every nonzero additive P is surjective
    on an algebraically closed or suitably large field; finite fields fail).

    Characteristic 0 satisfies the hypothesis by convention.  Over F_q the
    check is exhaustive and the default P is the canonical x^q - x, whose
    image is {0}, so the verdict carries the first non-image element as a
    witness.
    """
    if ctx.characteristic == 0:
        return HypothesisAVerdict(True, None, P)
    if not isinstance(ctx, FiniteField):
        raise FieldError("unsupported field context")
    if P is None:
        coeffs = [ctx.from_int(-1)] + [ctx.zero] * (ctx.e - 1) + [ctx.one]
        P = AdditivePoly(ctx, coeffs)
    if P.ctx != ctx:
        raise FieldError("polynomial belongs to a different field")
    if ctx.q > EXHAUSTIVE_BOUND:
        raise FieldError("field too large for the exhaustive surjectivity check")
    image = {P(c) for c in ctx.elements()}
    if len(image) == ctx.q:
        return HypothesisAVerdict(True, None, P)
    witness = next(c for c in ctx.elements() if c not in image)
    return HypothesisAVerdict(False, witness, P)
