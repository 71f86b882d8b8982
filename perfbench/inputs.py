"""Workload inputs: fixed sizes, recorded facts, and the seeded alpha list.

Only this module turns ``--seed`` into inputs.  It uses the standard
library alone (``decimal`` for the high-precision breakpoints), so the
same seed yields the same inputs whichever version of the library is
being measured.
"""

from __future__ import annotations

import decimal
import random

CENSUS_M = 34
TAIL_RANGE = range(35, 201)

# (mold, m) for each large sweep, with its interval count as recorded on
# the seed commit; the count is a mathematical fact about the molds, so a
# faster sweep must reproduce it
SWEEPS = (("F", 100), ("F", 200), ("L", 400))
SWEEP_INTERVALS = {("F", 100): 513, ("F", 200): 2049, ("L", 400): 290}

# the commands of the CLI acceptance test for byte-identical reruns
COMMANDS = (
    ("mold", "show", "--mold", "F", "--count", "30"),
    ("mold", "show", "--mold", "L", "--count", "30", "--format", "json"),
    ("table", "--m", "18", "--count", "51", "--format", "csv"),
    ("discretize", "--mold", "F", "--m", "12", "--alpha", "1", "--format", "json"),
    ("search", "--m", "13", "--format", "json"),
    ("search", "--m", "18", "--exact"),
    ("theorem", "--which", "4"),
    ("theorem", "--which", "5", "--format", "csv"),
    ("theorem", "--which", "6", "--format", "json"),
    ("fractal-division", "--p", "golden", "--depth", "5"),
)
# commands whose times give cli's growth exponent: largest m searched
GROWTH_COMMANDS = ((("search", "--m", "18", "--exact"), 18),
                   (("theorem", "--which", "4"), 34))

# alpha_probe: denominators 2^16 .. 2^2048 for the near-breakpoint half
BIT_LADDER = (16, 32, 64, 128, 256, 512, 1024, 2048)
# metric-mold multiplicities for near-breakpoint pairs; at m >= 40 the
# certified prefix reaches index 57, so every base below lies inside it
NEAR_L_M = (40, 48, 56)
LOG_BASES = tuple(n for n in range(3, 58, 2) if n not in (9, 25, 27, 49))
NEAR_F_M = (12, 16, 20, 24)
MODERATE_L_M = (12, 24, 36, 48) * 6
MODERATE_F_M = (8, 12, 16, 20, 24, 12) * 4


def _context(bits: int) -> decimal.Context:
    return decimal.Context(prec=bits * 302 // 1000 + 60, rounding=decimal.ROUND_FLOOR)


def _near(value_digits: decimal.Decimal, ctx: decimal.Context, bits: int, above: bool) -> str:
    """A dyadic with denominator 2^bits on one side of the fractional part."""
    whole = int(value_digits)
    frac = ctx.subtract(value_digits, decimal.Decimal(whole))
    num = int(ctx.multiply(frac, decimal.Decimal(1 << bits)))
    return f"{num + (1 if above else 0)}/{1 << bits}"


def log_breakpoint_alpha(m: int, n: int, bits: int, above: bool) -> str:
    """Alpha within 2^-bits of frac(m * log2(n)), the metric breakpoint of index n - 1."""
    ctx = _context(bits)
    x = ctx.divide(ctx.multiply(decimal.Decimal(m), ctx.ln(decimal.Decimal(n))),
                   ctx.ln(decimal.Decimal(2)))
    return _near(x, ctx, bits, above)


def golden_element(i: int) -> tuple[int, int]:
    """Element i of the golden fractal mold as (a, b), meaning a + b*tau.

    ell = floor(log2(i + 1)); the element is ell + f_ell(i + 1 - 2^ell)
    with left proportion tau and right proportion 1 - tau, using
    tau^2 = 1 - tau to stay in Z[tau].
    """
    ell = (i + 1).bit_length() - 1
    n = i + 1 - (1 << ell)
    a, b = 0, 0
    for k in range(ell):
        if (n >> k) & 1:  # tau + (1 - tau) * f
            a, b = a - b, 2 * b - a + 1
        else:  # tau * f
            a, b = b, a - b
    return a + ell, b


def golden_breakpoint_alpha(m: int, i: int, bits: int, above: bool) -> str:
    """Alpha within 2^-bits of frac(m * element_i) for the golden fractal mold."""
    a, b = golden_element(i)
    ctx = _context(bits)
    tau = ctx.divide(ctx.subtract(ctx.sqrt(decimal.Decimal(5)), decimal.Decimal(1)),
                     decimal.Decimal(2))
    x = ctx.add(decimal.Decimal(m * a), ctx.multiply(decimal.Decimal(m * b), tau))
    return _near(x, ctx, bits, above)


def alpha_probe_inputs(seed: int) -> list[dict]:
    """The seeded probe list: (mold, m, alpha) plus how it was made.

    The slots are fixed (mold, m, denominator size); the seed picks the
    breakpoints, the alphas and the order.  Near-breakpoint metric probes
    come in pairs sharing one log base at different m, so exactly half
    of them can reuse the other's cached high-precision enclosures.
    """
    rng = random.Random(seed)
    probes = []
    ladder = BIT_LADDER * 2
    bases = rng.sample(LOG_BASES, len(ladder))
    for j, (bits, n) in enumerate(zip(ladder, bases)):
        m1 = NEAR_L_M[j % len(NEAR_L_M)]
        m2 = NEAR_L_M[(j + 1) % len(NEAR_L_M)]
        for m, role in ((m1, "fresh"), (m2, "shared")):
            above = rng.random() < 0.5
            probes.append({"mold": "L", "m": m, "alpha": log_breakpoint_alpha(m, n, bits, above),
                           "kind": "near-" + role, "bits": bits, "base": n})
        mf = NEAR_F_M[j % len(NEAR_F_M)]
        # indices 1..62 lie inside the certified prefix for every m here;
        # 2^k - 1 are integers (no breakpoint), so skip them
        i = rng.choice([k for k in range(1, 63) if (k + 1) & k])
        probes.append({"mold": "F", "m": mf,
                       "alpha": golden_breakpoint_alpha(mf, i, bits, rng.random() < 0.5),
                       "kind": "near-golden", "bits": bits, "index": i})
    for mold, ms in (("L", MODERATE_L_M), ("F", MODERATE_F_M)):
        for m in ms:
            q = rng.randint(2, 10_000)
            probes.append({"mold": mold, "m": m, "alpha": f"{rng.randint(1, q - 1)}/{q}",
                           "kind": "moderate", "bits": q.bit_length()})
    rng.shuffle(probes)
    return probes
