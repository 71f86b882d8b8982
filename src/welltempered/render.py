"""Fixed-point decimal rendering of exact values.

Every printed decimal is the round-half-even rendering of the exact value
at the requested number of places.  Floats never enter the pipeline: each
renderer rejects a value that is not exact (a float, a bool, a string)
with TypeError, so the same value always renders to the same bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import certified_floor, exact_floor, exact_is_integer, is_exact_value, scale


def render_decimal(value, places: int = 4) -> str:
    """Round-half-even fixed-point rendering with exactly `places` decimals."""
    _check_exact(value)
    if places < 0:
        raise ValueError("places must be nonnegative")
    k = 10 ** places
    doubled = scale(value, 2 * k)
    n2 = certified_floor(doubled)
    q = n2 // 2
    if n2 % 2 == 0:
        scaled = q
    elif exact_is_integer(doubled):
        scaled = q + (q & 1)  # exact tie: round to even
    else:
        scaled = q + 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), k)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def render_compact(value, places: int = 4) -> str:
    """Integers render bare; short terminating rationals render exactly.

    Everything else gets `places` decimals, round-half-even.
    """
    _check_exact(value)
    if exact_is_integer(value):
        return str(exact_floor(value))
    if isinstance(value, Fraction):  # the fewest decimals that are exact
        places = next((d for d in range(places) if 10 ** d % value.denominator == 0), places)
    return render_decimal(value, places)


def render_exact(value) -> str:
    """The exact symbolic form: a+b*tau, m*log2(n)+c, or p/q."""
    _check_exact(value)
    return str(value)


def _check_exact(value) -> None:
    if not is_exact_value(value):
        raise TypeError(f"cannot render {value!r}: not an exact value")
