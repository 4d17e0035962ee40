"""Pricing a bet on the next toss of a coin of unknown bias.

After x heads in m tosses, what is a bet paying 1-on-head worth?  The
likelihood method needs no prior over the bias: it maximizes the normalized
binomial likelihood times the win/lose evidence weights over all biases.
Bayesian answers with three standard noninformative priors bracket it.
"""

from likelihood_gambles import (
    BinomialScenario,
    emit_table,
    likelihood_price,
    normalized_binomial_likelihood,
    render_table_csv,
    render_table_text,
)

print("Ten observed tosses, neutral premium:\n")
rows = emit_table(10, 0.0)
print(render_table_text(rows))

print("\nThe likelihood column is symmetric: price(x) + price(10-x) = 1")
print("and more cautious than every prior near the edges (compare x = 10).")

# The same table is available as CSV for machine consumption.
print("\nCSV head:")
print("\n".join(render_table_csv(rows).splitlines()[:3]))

# An ambiguity-averse gambler (negative premium) shades every price down;
# a seeking one shades it up.
print("\nx = 7 of 10 under different premiums:")
for c in (-1.0, 0.0, 1.0):
    print(f"  premium {c:+.0f}: {likelihood_price(BinomialScenario(10, 7, c)):.4f}")

# The ingredient everything rests on: the bias-by-bias normalized
# likelihood, equal to 1 at the observed frequency.
scenario = BinomialScenario(10, 7)
print("\nnormalized likelihood of selected biases after 7/10 heads:")
for p in [i / 10 for i in range(1, 11)]:
    bar = "#" * round(40 * normalized_binomial_likelihood(p, scenario))
    print(f"  p={p:.1f}  {bar}")
