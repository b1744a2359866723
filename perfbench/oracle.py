"""Reference arithmetic for checking ktq results, independent of src/ktq.

Series are held as (D, {k: c}, cap): the term c * t^(k/D) for integer k,
one common denominator D, and cap a Fraction, or None for an exact series.
Coefficients are plain values: Fraction over Q, ints mod p over F_p, and
over F_q ints whose base-p digits are the coefficients of 1, g, g^2, ...
(the order in which ktq enumerates a field's elements).  Multiplication in
F_q goes through log/antilog tables built from the field's printed modulus.

ktq results enter only through their public text forms: `to_json_dict()`,
`format_coeff`, and the CLI's printed series.  Each check compares terms
*and* cap: a cap below the rule in the ktq docstrings is wrong, and so is
a cap above what the inputs can certify.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import ceil, isqrt, lcm


def cap_min(*caps):
    finite = [c for c in caps if c is not None]
    return min(finite) if finite else None


def cap_le(a, b):
    """a <= b for caps, with None standing for infinity."""
    if b is None:
        return True
    return a is not None and a <= b


# ------------------------------------------------------------------ fields


class Field:
    """Q, F_p or F_q, parsed from a field spec such as "F9:x^2+1"."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "Q":
            self.p, self.e, self.q = 0, 1, 0
            self.zero, self.one = Fraction(0), Fraction(1)
            return
        head, _, mod_text = spec.partition(":")
        q = int(head[1:])
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        e = 0
        while q % p ** (e + 1) == 0:
            e += 1
        self.p, self.e, self.q = p, e, q
        self.zero, self.one = 0, 1
        if e > 1:
            modulus = _parse_poly(mod_text, "x", p)
            self._build_tables([modulus.get(i, 0) for i in range(e + 1)])

    # -- table construction for F_q (q = p^e, e > 1)

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        a = 0
        for d in reversed(ds):
            a = a * self.p + d
        return a

    def _polymul(self, a, b, modulus):
        p, e = self.p, self.e
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(2 * e - 2, e - 1, -1):
            f = prod[deg]
            if f:
                for i in range(e + 1):
                    prod[deg - e + i] = (prod[deg - e + i] - f * modulus[i]) % p
        return self._undigits(prod[:e])

    def _build_tables(self, modulus):
        q = self.q
        for gen in range(2, q):
            exp, x = [1], 1
            for _ in range(q - 2):
                x = self._polymul(x, gen, modulus)
                if x == 1:
                    break
                exp.append(x)
            if len(exp) == q - 1:
                break
        self.exp = exp + exp
        self.log = {x: i for i, x in enumerate(exp)}
        if self.p == 2:
            self._addt = None
        else:
            self._addt = [[self._undigits([(x + y) % self.p for x, y in
                                           zip(self._digits(a), self._digits(b))])
                           for b in range(q)] for a in range(q)]
            self._negt = [self._undigits([(-x) % self.p for x in self._digits(a)])
                          for a in range(q)]

    # -- arithmetic

    def add(self, a, b):
        if self.e == 1:
            return a + b if self.p == 0 else (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._addt[a][b]

    def neg(self, a):
        if self.e == 1:
            return -a if self.p == 0 else (-a) % self.p
        return a if self.p == 2 else self._negt[a]

    def mul(self, a, b):
        if self.e == 1:
            return a * b if self.p == 0 else a * b % self.p
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return 1 / Fraction(a) if self.p == 0 else pow(a, self.p - 2, self.p)
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def power(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        if self.p == 0:
            return Fraction(a) ** n
        if self.e == 1:
            return pow(a, n, self.p)
        if not a:
            return 0 if n else 1
        return self.exp[self.log[a] * n % (self.q - 1)]

    def frob(self, a, b):
        """a^(p^b); b < 0 takes the unique p^|b|-th root."""
        order = self.e  # the Frobenius has order e on F_{p^e}
        return self.power(a, self.p ** (b % order))

    def parse(self, text: str):
        """An element from ktq's printed coefficient form."""
        text = text.strip()
        if self.p == 0:
            return Fraction(text)
        if self.e == 1:
            return int(text) % self.p
        poly = _parse_poly(text, "g", self.p)
        if any(d >= self.e for d in poly):
            raise ValueError(f"coefficient {text!r} is not reduced")
        return self._undigits([poly.get(i, 0) for i in range(self.e)])


def _parse_poly(text, var, p):
    """ "2*g^3+g+1" -> {3: 2, 1: 1, 0: 1}, coefficients mod p."""
    out = {}
    for part in text.strip().split("+"):
        part = part.strip()
        coeff, _, power = part.partition("*") if "*" in part else ("", "", part)
        if not coeff and not power.startswith(var):
            coeff, power = power, ""
        c = int(coeff) if coeff else 1
        if not power:
            deg = 0
        elif power == var:
            deg = 1
        else:
            deg = int(power[len(var) + 1:])
        out[deg] = (out.get(deg, 0) + c) % p
    return {d: c for d, c in out.items() if c}


# ----------------------------------------------------------------- series


class OS:
    """An oracle series: terms {k: c} meaning c * t^(k/D), certified below cap."""

    __slots__ = ("F", "D", "terms", "cap")

    def __init__(self, F, D, terms, cap):
        self.F, self.D, self.cap = F, D, cap
        self.terms = {k: c for k, c in terms.items() if c and
                      (cap is None or Fraction(k, D) < cap)}

    @classmethod
    def from_fracs(cls, F, pairs, cap):
        pairs = [(Fraction(e), c) for e, c in pairs]
        D = lcm(1, *(e.denominator for e, _ in pairs))
        if cap is not None:
            cap = Fraction(cap)
        out = {}
        for e, c in pairs:
            k = int(e * D)
            out[k] = F.add(out.get(k, F.zero), c)
        return cls(F, D, out, cap)

    def fracs(self):
        return sorted((Fraction(k, self.D), c) for k, c in self.terms.items())

    def rebase(self, D):
        if D == self.D:
            return self
        m = D // self.D
        s = OS.__new__(OS)
        s.F, s.D, s.cap = self.F, D, self.cap
        s.terms = {k * m: c for k, c in self.terms.items()}
        return s

    def known_val(self):
        return Fraction(min(self.terms), self.D) if self.terms else self.cap

    def below(self, bound):
        """Terms strictly below bound (None keeps all), as {Fraction: c}."""
        return {Fraction(k, self.D): c for k, c in self.terms.items()
                if bound is None or Fraction(k, self.D) < bound}


def _common(a, b):
    D = lcm(a.D, b.D)
    return a.rebase(D), b.rebase(D), D


def add(a, b):
    a, b, D = _common(a, b)
    F = a.F
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = F.add(out.get(k, F.zero), c)
    return OS(F, D, out, cap_min(a.cap, b.cap))


def neg(a):
    return OS(a.F, a.D, {k: a.F.neg(c) for k, c in a.terms.items()}, a.cap)


def mul_cap(a, b):
    """The mul rule: min(cap_a + v*(b), cap_b + v*(a))."""
    va, vb = a.known_val(), b.known_val()
    c1 = None if a.cap is None or vb is None else a.cap + vb
    c2 = None if b.cap is None or va is None else b.cap + va
    return cap_min(c1, c2)


def mul(a, b):
    a, b, D = _common(a, b)
    F = a.F
    fmul, fadd = F.mul, F.add
    out = {}
    for i, x in a.terms.items():
        for j, y in b.terms.items():
            k = i + j
            out[k] = fadd(out.get(k, F.zero), fmul(x, y))
    return OS(F, D, out, mul_cap(a, b))


def scale(a, c):
    return OS(a.F, a.D, {k: a.F.mul(c, v) for k, v in a.terms.items()}, a.cap)


def frob_map(a, b):
    """Termwise z -> z^(p^b): exponents and cap scale by p^b."""
    F = a.F
    f = Fraction(F.p) ** b
    D = a.D * f.denominator
    terms = {k * f.numerator: F.frob(c, b) for k, c in a.terms.items()}
    return OS(F, D, terms, None if a.cap is None else a.cap * f)


def _unit_parts(x):
    """x = c t^m (1 + eps): returns m, c and the relative series w = 1 + eps
    as a dense list on the lattice 1/D (w[0] = 1)."""
    if not x.terms:
        raise ValueError("no visible leading term")
    k0 = min(x.terms)
    c = x.terms[k0]
    ci = x.F.inv(c)
    w = {k - k0: x.F.mul(ci, v) for k, v in x.terms.items()}
    return Fraction(k0, x.D), c, w


def _dense(w, n, F):
    return [w.get(k, F.zero) for k in range(n)]


def unit_inverse(F, w, n):
    """1/w to n lattice steps, w[0] = 1, by the power-series recurrence."""
    ws = [(k, c) for k, c in w.items() if k > 0 and k < n]
    b = [F.zero] * n
    if n:
        b[0] = F.one
    for i in range(1, n):
        acc = F.zero
        for k, c in ws:
            if k > i:
                break
            acc = F.add(acc, F.mul(c, b[i - k]))
        b[i] = F.neg(acc)
    return b


def unit_power(F, w, alpha, n):
    """w^alpha to n lattice steps, w[0] = 1, for rational alpha over Q
    (J.C.P. Miller's recurrence) or integer alpha over any field."""
    if F.p == 0:
        alpha = Fraction(alpha)
        ws = sorted((k, c) for k, c in w.items() if 0 < k < n)
        z = [Fraction(0)] * n
        if n:
            z[0] = Fraction(1)
        for i in range(1, n):
            acc = Fraction(0)
            for k, c in ws:
                if k > i:
                    break
                acc += ((alpha + 1) * k - i) * c * z[i - k]
            z[i] = acc / i
        return z
    if alpha.denominator != 1:
        raise ValueError("integer exponents only in characteristic p")
    a = int(alpha)
    base = _dense(w, n, F) if a >= 0 else unit_inverse(F, w, n)
    a = abs(a)
    result = [F.one] + [F.zero] * (n - 1)
    while a:
        if a & 1:
            result = _trunc_mul(F, result, base, n)
        a >>= 1
        if a:
            base = _trunc_mul(F, base, base, n)
    return result[:n]


def _trunc_mul(F, a, b, n):
    out = [F.zero] * n
    nz_b = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in nz_b:
            if i + j >= n:
                break
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _steps(rel_bound, D):
    """How many lattice points k/D, k >= 0, lie strictly below rel_bound."""
    return max(0, ceil(Fraction(rel_bound) * D))


def inverse(x, requested):
    """(truth_fn, cap_lo, cap_hi) for x.invert(requested).

    cap rule: min(requested, cap_x - 2 v(x)).  The result may carry more
    than was requested, up to what the input certifies: cap_x - 2 v(x), or
    any cap for an exact input."""
    F = x.F
    m, c, w = _unit_parts(x)
    hi = None if x.cap is None else x.cap - 2 * m
    lo = cap_min(requested, hi)
    ci = F.inv(c)
    monomial = len(w) == 1

    def truth(bound):
        if bound is None:
            return {-m: ci} if monomial else None
        n = _steps(bound + m, x.D)
        z = unit_inverse(F, w, n)
        return {Fraction(k, x.D) - m: F.mul(ci, v) for k, v in enumerate(z) if v}
    return truth, lo, hi


def power(x, i, requested):
    """(truth_fn, cap_lo, cap_hi) for pow_rat(x, i, requested), x monic.

    i = p^b * q with p-free q; over F_p only integer q is supported here,
    i.e. exponent denominators that are powers of p.  cap rule:
    min(requested, m*i + p^b * (cap_x - m)).  The result may carry more
    than was requested, up to the second term, or any cap for an exact
    input."""
    F = x.F
    i = Fraction(i)
    m, c, w = _unit_parts(x)
    if c != F.one:
        raise ValueError("pow_rat needs a monic base")
    b = 0
    if F.p and i:
        num, den = i.numerator, i.denominator
        while num % F.p == 0:
            num //= F.p
            b += 1
        while den % F.p == 0:
            den //= F.p
            b -= 1
    scale_ = Fraction(F.p) ** b if F.p else Fraction(1)
    qpart = i / scale_
    hi = None if x.cap is None else m * i + scale_ * (x.cap - m)
    lo = cap_min(requested, hi)
    finite = len(w) == 1 or (qpart.denominator == 1 and qpart >= 0)

    def truth(bound):
        if i == 0:
            return {Fraction(0): F.one}
        if bound is None:
            if not finite:
                return None
            n = (max(w) * int(qpart) + 1) if len(w) > 1 else 1
        else:
            n = _steps((bound - m * i) / scale_, x.D)
        z = unit_power(F, w, qpart, n)
        rel = OS(F, x.D, dict(enumerate(z)), None)
        if b:
            rel = frob_map(rel, b)
        return {e + m * i: v for e, v in rel.below(None).items()}
    return truth, lo, hi


def substitute(x, y, requested):
    """(truth_fn, cap_lo, cap_hi) for substitute(x, y, requested): the sum
    of c_i * x^i over y's terms.  cap rule: min(requested, m * cap_y, the
    cap of each x^i)."""
    F = x.F
    m, _, _ = _unit_parts(x)
    parts = [(c, power(x, e, requested)) for e, c in y.fracs()]
    hi = cap_min(None if y.cap is None else m * y.cap, *(p[2] for _, p in parts))
    lo = cap_min(requested, hi)

    def truth(bound):
        out = {}
        for c, (fn, _, _) in parts:
            part = fn(bound)
            if part is None:
                return None
            for e, v in part.items():
                if bound is None or e < bound:
                    out[e] = F.add(out.get(e, F.zero), F.mul(c, v))
        return {e: v for e, v in out.items() if v}
    return truth, lo, hi


def apply_additive(coeffs, x):
    """P(x) = sum a_i x^(p^i) on an oracle series."""
    F = x.F
    acc = None
    for i, a in enumerate(coeffs):
        if a:
            term = scale(frob_map(x, i), a)
            acc = term if acc is None else add(acc, term)
    return acc


# ------------------------------------------------------------ ktq results


def from_json(F, data):
    """An oracle series from ktq's Series.to_json_dict()."""
    if data["field"] != F.spec:
        raise ValueError(f"field {data['field']} is not {F.spec}")
    cap = None if data["cap"] == "inf" else Fraction(*data["cap"])
    return _result(F, [(Fraction(n, d), F.parse(c)) for n, d, c in data["terms"]], cap)


def _result(F, pairs, cap):
    """An oracle series for a ktq result, which must hold only nonzero
    terms below its cap."""
    if any(not c or (cap is not None and e >= cap) for e, c in pairs):
        raise ValueError("a zero term, or a term at or above the cap")
    if len({e for e, _ in pairs}) != len(pairs):
        raise ValueError("an exponent listed twice")
    return OS.from_fracs(F, pairs, cap)


def check(got: OS, truth, lo, hi, why=""):
    """'' when got matches; otherwise the reason it is wrong."""
    if not cap_le(lo, got.cap):
        return f"{why}: cap {got.cap} is below the rule's {lo}"
    if not cap_le(got.cap, hi):
        return f"{why}: cap {got.cap} is above the certifiable {hi}"
    want = truth(got.cap) if callable(truth) else truth
    if want is None:
        return f"{why}: exact result claimed for an infinite series"
    want = {e: v for e, v in want.items() if v and (got.cap is None or e < got.cap)}
    have = got.below(None)
    if have != want:
        diff = sorted(set(have.items()) ^ set(want.items()))[:3]
        return f"{why}: terms differ, e.g. {diff}"
    return ""


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_text_series(F, text):
    """An oracle series from ktq's printed form, e.g.
    "t^(-1) + 1 + (g+1)*t^2 - 3/2*t^(1/2) + O(t^4)"."""
    text = text.strip()
    if text == "0":
        return OS(F, 1, {}, None)
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM_SPLIT.split(text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    pairs, cap = [], None
    for sg, body in zip(signs, pieces[0::2]):
        if body.startswith("O(") and body.endswith(")"):
            cap = _parse_tpart(body[2:-1])
            continue
        if body.startswith("t"):
            coeff, tpart = "1", body
        elif "*t" in body:
            coeff, tpart = body.rsplit("*t", 1)
            tpart = "t" + tpart
        else:
            coeff, tpart = body, "1"
        if coeff.startswith("(") and coeff.endswith(")"):
            coeff = coeff[1:-1]
        c = F.parse(coeff)
        if sg < 0:
            c = F.neg(c)
        pairs.append((_parse_tpart(tpart), c))
    return _result(F, pairs, cap)


def _parse_tpart(s):
    if s == "1":
        return Fraction(0)
    if s == "t":
        return Fraction(1)
    if not s.startswith("t^"):
        raise ValueError(f"bad t-part {s!r}")
    s = s[2:]
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return Fraction(s)


# --------------------------------------------------------------- transforms


def apply_steps(F, steps):
    """T(t) for a transform in ktq's Transform.to_json() form, evaluated
    with the reference arithmetic above."""
    z = OS(F, 1, {1: F.one}, None)
    for step in steps:
        (key, value), = step.items()
        if key == "substitute":
            x = from_json(F, value)
            fn, lo, _ = substitute(x, z, None)
            z = OS.from_fracs(F, list(fn(lo).items()), lo)
        elif key == "rescale":
            z = _rescale(F, value, z)
        elif key == "translate":
            z = add(z, OS(F, 1, {0: F.parse(value)}, None))
        elif key == "invert":
            fn, lo, _ = inverse(z, None)
            z = OS.from_fracs(F, list(fn(lo).items()), lo)
        else:
            raise ValueError(f"unknown step {key}")
    return z


def _rescale(F, value, z):
    if value.get("trivial"):
        return z
    committed = [(int(d), F.parse(u)) for d, u in value["committed"]]
    out = []
    for e, c in z.fracs():
        for d, u in committed:
            if d % e.denominator == 0:
                out.append((e, F.mul(F.power(u, e.numerator * (d // e.denominator)), c)))
                break
        else:
            raise ValueError(f"exponent {e} outside the committed lattice")
    return OS.from_fracs(F, out, z.cap)
