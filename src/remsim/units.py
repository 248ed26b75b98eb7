"""Unit-tagged quantity parsing with dimension checks.

Config files carry physical values with explicit unit suffixes
(``velocity = 88 m/day``).  Each unit spelling has an SI factor and a
dimension, the exponents of m, s, kg and K; a compound unit such as
``L/h/m^2`` gets both from one walk over its atoms.  A value is converted
to strict SI at load time, and only when its unit has the dimension of
the unit the caller expects.  A bare number is accepted exactly where that
unit is dimensionless (``-``), and a unit there other than ``-`` is
rejected.
"""

from __future__ import annotations

_BASES = ("m", "s", "kg", "K")
_NONE = (0, 0, 0, 0)

# SI factor and dimension (exponents of m, s, kg, K) of every unit spelling.
_UNITS = {
    # length
    "m": (1.0, (1, 0, 0, 0)),
    "cm": (1e-2, (1, 0, 0, 0)),
    "mm": (1e-3, (1, 0, 0, 0)),
    "um": (1e-6, (1, 0, 0, 0)),
    "nm": (1e-9, (1, 0, 0, 0)),
    # time
    "s": (1.0, (0, 1, 0, 0)),
    "min": (60.0, (0, 1, 0, 0)),
    "h": (3600.0, (0, 1, 0, 0)),
    "hour": (3600.0, (0, 1, 0, 0)),
    "day": (86400.0, (0, 1, 0, 0)),
    "year": (365.0 * 86400.0, (0, 1, 0, 0)),
    # mass
    "kg": (1.0, (0, 0, 1, 0)),
    "g": (1e-3, (0, 0, 1, 0)),
    # volume
    "m^3": (1.0, (3, 0, 0, 0)),
    "L": (1e-3, (3, 0, 0, 0)),
    # pressure / viscosity
    "Pa": (1.0, (-1, -2, 1, 0)),
    "kPa": (1e3, (-1, -2, 1, 0)),
    "Pa*s": (1.0, (-1, -1, 1, 0)),
    # temperature / energy
    "K": (1.0, (0, 0, 0, 1)),
    "J": (1.0, (2, -2, 1, 0)),
    # dimensionless
    "-": (1.0, _NONE),
}


class UnitError(ValueError):
    """Raised for unknown units and for units of the wrong dimension."""


def _unit(unit: str) -> tuple[float, tuple[int, ...]]:
    """SI factor and dimension of a possibly compound unit like ``kg/m^2/s``."""
    unit = unit.strip()
    if unit in _UNITS:
        return _UNITS[unit]
    # compound: numerator / denom / denom ... each part may carry ^n
    parts = unit.split("/")
    factor, dim = _atom(parts[0])
    for p in parts[1:]:
        f, d = _atom(p)
        factor /= f
        dim = tuple(a - b for a, b in zip(dim, d))
    return factor, dim


def _atom(atom: str) -> tuple[float, tuple[int, ...]]:
    atom = atom.strip()
    if atom == "1":
        return 1.0, _NONE
    if atom in _UNITS:
        return _UNITS[atom]
    if "^" in atom:
        base, _, exp = atom.partition("^")
        base = base.strip()
        if base in _UNITS:
            try:
                n = int(exp)
            except ValueError as err:
                raise UnitError(f"bad exponent in unit {atom!r}") from err
            factor, dim = _UNITS[base]
            return factor ** n, tuple(e * n for e in dim)
    raise UnitError(f"unknown unit {atom!r}")


def _show(dim: tuple[int, ...]) -> str:
    """A dimension as base units, positive exponents first: ``kg m^-1 s^-2``."""
    terms = sorted(((b, e) for b, e in zip(_BASES, dim) if e), key=lambda t: t[1] < 0)
    return " ".join(b if e == 1 else f"{b}^{e}" for b, e in terms) or "dimensionless"


def parse_quantity(text: str, unit: str) -> float:
    """Parse ``"<number> <unit>"`` into an SI float of ``unit``'s dimension.

    A bare number counts as ``-``, so it is accepted only where ``unit``
    is dimensionless.
    """
    number, *given = text.split(None, 1) or [""]
    value = float(number)
    given = given[0].strip() if given else "-"
    factor, dim = _unit(given)
    want = _unit(unit)[1]
    if dim != want:
        raise UnitError(f"{text.strip()} is {_show(dim)}, expected {_show(want)}")
    if want == _NONE and given != "-":
        raise UnitError(f"{text.strip()}: a dimensionless value takes no unit but -")
    return value * factor
