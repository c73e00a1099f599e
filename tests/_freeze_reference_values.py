"""Regenerate the frozen reference constants used in the test suite.

Every numeric literal asserted in the tests that is not an obvious hand
computation was produced by this script with mpmath at 60 significant
digits, rounded to 17 digits for embedding.  Run it directly to reprint
them:

    python3 tests/_freeze_reference_values.py

The evaluations here are deliberately naive (plain coth/cosh ratios, no
overflow guards, brute-force root finding) so that they stay independent
of the library implementation they are used to check.
"""

import mpmath as mp

mp.mp.dps = 60


def show(name, value):
    print(f"{name:44s} = {mp.nstr(mp.mpf(value), 17)}")


def occ(x):
    """Thermal occupation 1/(e^x - 1)."""
    return 1 / mp.expm1(x)


def dh(x, r):
    """Squeezing enhancement factor 1 + (2 + 1/<n>) sinh^2 r at argument x = beta*omega."""
    return 1 + (2 + mp.expm1(x)) * mp.sinh(r) ** 2


def corner_energies(w1, w2, b1, b2, r, placement="hot"):
    lam = (w1**2 + w2**2) / (2 * w1 * w2)
    c1 = mp.coth(b1 * w1 / 2)
    c2 = mp.coth(b2 * w2 / 2)
    if placement == "hot":
        dhot = dh(b2 * w2, r)
        ha = w1 / 2 * c1
        hb = w2 / 2 * lam * c1
        hc = w2 / 2 * c2 * dhot
        hd = w1 / 2 * lam * c2 * dhot
    else:
        dcold = dh(b1 * w1, r)
        ha = w1 / 2 * c1 * dcold
        hb = w2 / 2 * lam * c1 * dcold
        hc = w2 / 2 * c2
        hd = w1 / 2 * lam * c2
    return ha, hb, hc, hd


def performance(w1, w2, b1, b2, r, placement="hot"):
    ha, hb, hc, hd = corner_energies(w1, w2, b1, b2, r, placement)
    q2 = hc - hb
    q4 = ha - hd
    return q2, q4, q2 + q4


def eta_up(eta_c, r):
    tau = 1 - eta_c
    c = mp.cosh(2 * r)
    return (c - tau) * (2 * c + tau - 2 * mp.sqrt(2 * tau * c)) / (2 * c - tau) ** 2


def eta_mw(eta_c, r):
    s = mp.sqrt((1 - eta_c) / mp.cosh(2 * r))
    return (1 - s) / (2 + s)


print("# cycle: occupations and enhancement factors")
show("occupation(beta*omega=1)", occ(1))
show("two_n_plus_one(beta*omega=1)", 2 * occ(1) + 1)
show("sinh^2(0.5)", mp.sinh(0.5) ** 2)
show("squeezed occupation N(1, 1, 0.5)", occ(1) + (2 * occ(1) + 1) * mp.sinh(0.5) ** 2)
show("delta_h(x=1, r=1)", dh(1, 1))
show("cosh(2)", mp.cosh(2))
show("cosh(1)", mp.cosh(1))

print("\n# cycle: coth spot values")
show("coth(1)", mp.coth(1))
show("coth(0.2)", mp.coth(mp.mpf("0.2")))
show("coth(20) - 1", mp.coth(20) - 1)

print("\n# cycle: engine example w1=1 w2=2 b1=2 b2=0.2 r=0 sudden, hot placement")
ha, hb, hc, hd = corner_energies(1, 2, 2, mp.mpf("0.2"), 0)
for nm, v in zip(("H_A", "H_B", "H_C", "H_D"), (ha, hb, hc, hd)):
    show(nm, v)
q2, q4, w = performance(1, 2, 2, mp.mpf("0.2"), 0)
show("Q2", q2)
show("Q4", q4)
show("W_ext", w)
show("eta = W/Q2", w / q2)

print("\n# cycle: squeezed engine example, same freqs/temps, r=0.5 hot")
q2, q4, w = performance(1, 2, 2, mp.mpf("0.2"), mp.mpf("0.5"))
show("Q2(r=0.5)", q2)
show("Q4(r=0.5)", q4)
show("W_ext(r=0.5)", w)
show("eta(r=0.5)", w / q2)

print("\n# cycle: cold-squeezed refrigerator example w1=1 w2=2 b2=0.01 tau=0.75 r=0.2")
b2 = mp.mpf("0.01")
tau = mp.mpf("0.75")
q2, q4, w = performance(1, 2, b2 / tau, b2, mp.mpf("0.2"), placement="cold")
show("Q2 (cold)", q2)
show("Q4 (cold)", q4)
show("W_ext (cold)", w)
show("cop = Q4/(-W)", q4 / (-w))

print("\n# cycle: effective temperature, beta=1 omega=1 r=1")
n_sq = occ(1) + (2 * occ(1) + 1) * mp.sinh(1) ** 2
show("squeezed occupation N(1, 1, 1)", n_sq)
show("T_eff(1, 1, 1)", 1 / mp.log(1 + 1 / n_sq))

print("\n# engine: bound spot values")
show("eta_up(0.2, 1)", eta_up(mp.mpf("0.2"), 1))
show("eta_mw(0.2, 1)", eta_mw(mp.mpf("0.2"), 1))
show("s = sqrt(0.8 sech 2)", mp.sqrt(mp.mpf("0.8") / mp.cosh(2)))
show("generalized_carnot(0.2, 1)", 1 - mp.mpf("0.8") / mp.cosh(2))
show("eta_up(0.2, 6)", eta_up(mp.mpf("0.2"), 6))
show("eta_up_thermal(0.5)", eta_up(mp.mpf("0.5"), 0))
show("eta_rk(0.5)", eta_mw(mp.mpf("0.5"), 0))
show("eta_up_thermal(0.2)", eta_up(mp.mpf("0.2"), 0))
show("eta_rk(0.2)", eta_mw(mp.mpf("0.2"), 0))
show("work_ht(z=0.6, tau=0.5, r=0.5)",
     (1 - mp.mpf("0.36")) * (mp.mpf("0.36") * mp.cosh(1) - mp.mpf("0.5")) / (2 * mp.mpf("0.36")))

print("\n# engine: Carnot crossings of the bounds (Fig.-2 style anchors)")
show("r: eta_up(0.2, r) = 0.2", mp.findroot(lambda r: eta_up(mp.mpf("0.2"), r) - mp.mpf("0.2"), mp.mpf("0.9")))
show("r: eta_mw(0.2, r) = 0.2", mp.findroot(lambda r: eta_mw(mp.mpf("0.2"), r) - mp.mpf("0.2"), mp.mpf("0.9")))
show("r: eta_up(0.4, r) = 0.4", mp.findroot(lambda r: eta_up(mp.mpf("0.4"), r) - mp.mpf("0.4"), mp.mpf("1.5")))
show("r: eta_mw(0.4, r) = 0.4", mp.findroot(lambda r: eta_mw(mp.mpf("0.4"), r) - mp.mpf("0.4"), mp.mpf("2.0")))

print("\n# fridge: bounds and windows")
show("7 - 4 sqrt 3", 7 - 4 * mp.sqrt(3))
show("10 - 4 sqrt 6", 10 - 4 * mp.sqrt(6))
show("r with tau=0.4, tau_c=2/3 (acosh(5/3)/2)", mp.acosh(mp.mpf(5) / 3) / 2)
show("acosh(2)/2", mp.acosh(2) / 2)
show("acosh(4)/2", mp.acosh(4) / 2)
show("acosh(4/3)/2", mp.acosh(mp.mpf(4) / 3) / 2)
show("sech(1)", mp.sech(1))
show("sech(1)/2", mp.sech(1) / 2)

print("\n# fridge: golden-section cross-check of the COP maximum at tau=2/3, r=0")
tc = mp.mpf(2) / 3


def cop(y):
    return y * (2 * tc - 1 - y) / ((1 - y) * (tc - y))


ys = mp.findroot(lambda y: mp.diff(cop, y), mp.mpf("0.21"))
show("argmax y = z^2", ys)
show("argmax z", mp.sqrt(ys))
show("max cop", cop(ys))
