"""Free words and the Fox differential calculus.

Walks through the two derivatives that drive everything downstream: the
derivative rules on small words, the derivatives of the pattern-piece relator
p t p t p^-1 t^-1 p^-1 t^-1, and the fundamental identity that makes d1 d2 = 0
in the twisted chain complex.  A generator is its name: parse_word takes the
names a word may use, and fox_derivative the name to differentiate by.
"""

from cabletorsion import (
    GroupRingElement,
    fox_derivative,
    parse_word,
    word_to_text,
)
from cabletorsion.words import fox_fundamental_defect

p, t = "p", "t"


def show(label, elem):
    bits = []
    for word, coeff in elem.terms.items():
        text = word_to_text(word) or "1"
        bits.append(f"{'+' if coeff > 0 else '-'}{abs(coeff) if abs(coeff) != 1 else ''}[{text}]")
    print(f"  d/d{label} = {' '.join(bits)}")


print("Base rules")
print("  d(x)/dx =", fox_derivative(parse_word("x", ["x"]), "x").terms)
print("  d(x^-1)/dx =", fox_derivative(parse_word("x^-1", ["x"]), "x").terms)

print()
print("Pattern-piece relator r = p t p t p^-1 t^-1 p^-1 t^-1")
relator = parse_word("p t p t p^-1 t^-1 p^-1 t^-1", [p, t])
show("p", fox_derivative(relator, p))
show("t", fox_derivative(relator, t))

print()
print("Fundamental identity: sum_g (dr/dg)(g - 1) - (r - 1) vanishes identically")
defect = fox_fundamental_defect(relator, [p, t])
print("  defect terms:", defect.terms if defect.terms else "{} (identically zero)")

print()
print("Product rule on a longer word: d(uv) = du + u dv")
u = parse_word("p t^-1 p", [p, t])
v = parse_word("t p^-1", [p, t])
lhs = fox_derivative(u * v, p)
rhs = fox_derivative(u, p) + GroupRingElement.from_word(u) * fox_derivative(v, p)
print("  d(uv)/dp == du/dp + u dv/dp :", lhs == rhs)
