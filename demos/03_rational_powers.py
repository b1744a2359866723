"""
Rational powers x^e
===================

Powers of a monic series split into a monomial part and a binomial series
in the tail.  Over Q the tail comes from Miller's power recurrence.  In
characteristic p the exponent's p-part is handled exactly by the Frobenius
of the series field, and the rest, a p-adic integer, by a product of
Frobenius images of the tail over its base-p digits.
"""

from fractions import Fraction as F

from ktq import Series, frobenius_map, make_field, nth_root, pow_rat

Q = make_field("Q")
F2 = make_field("F2")

x = Series(Q, {F(1): 1, F(2): 1})  # t + t^2

# characteristic 0: plain binomial series, truncated at the requested cap
print("sqrt(t+t^2)      =", pow_rat(x, F(1, 2), F(3)))
print("(t+t^2)^(-1)     =", pow_rat(x, F(-1), F(2)))
print("(t+t^2)^3        =", pow_rat(x, F(3), F(20)))  # terminates, stays exact

# characteristic p: t -> t^p is a field endomorphism, so p-th roots are
# termwise and exact
y = Series(F2, {F(1): 1, F(2): 1})
print("y^(1/2) over F2  =", frobenius_map(y, -1))
print("y^(1/2) squared  =", pow_rat(frobenius_map(y, -1), F(2), F(8)))

# mixed exponent 3/2 = 2^(-1) * 3: binomial for 3, Frobenius for the rest
print("y^(3/2) over F2  =", pow_rat(y, F(3, 2), F(4)))

# nth_root is the rational power 1/n with the same certificates
z = Series(F2, {F(2): 1, F(3): 1, F(5): 1})
r = nth_root(z, 4, F(3))
print("4th root of z    =", r)
check = r
for _ in range(3):
    check = check * r
print("root^4           =", check)
print("agrees with z below joint caps:", check.agrees_below(z))
