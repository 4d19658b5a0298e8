"""Built-in generators shipped with the CLI, plus known-formula lookup."""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .algebra import (
    StructureAlgebra,
    ad_unit,
    direct_sum,
    full_matrix,
    truncated_grassmann,
    ut,
)
from .errors import BadParams, ParseError, SizeCap
from .fileformat import AlgebraFile, parse_rational
from .linalg import span_coordinates
from .piengine import DEFAULT_MAX_ENTRIES


def _eta_matrix(alpha, beta):
    u2 = ut(2)
    eps = ad_unit(u2, 2, 2).matrix
    delta = ad_unit(u2, 1, 2).matrix
    return eps.scale(alpha) + delta.scale(beta)


def _int_param(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadParams(f"parameter {name} must be an integer, not {text!r}")


def _rational_param(name: str, text: str) -> Fraction:
    try:
        return parse_rational(text, f"parameter {name}")
    except ParseError:
        raise BadParams(f"parameter {name} must be a rational number, not {text!r}")


# sized families: parameter name, constructor, dimension at a parameter >= 1
_SIZED = {
    "utn": ("n", ut, lambda n: n * (n + 1) // 2),
    "matn": ("n", full_matrix, lambda n: n * n),
    "grassmann-k": ("k", truncated_grassmann, lambda k: 2**k),
}


def _sized(family: str, text: str, max_entries: int) -> tuple[int, int]:
    """(parameter, dimension) of a sized family; the dimension is 0 below 1,
    where the constructor refuses the parameter.  A Grassmann exponent is
    clipped at the budget's bit length, past which 2^k already exceeds it."""
    param, _build, dimension = _SIZED[family]
    n = _int_param(f"{family} {param}", text)
    if n < 1:
        return n, 0
    if family == "grassmann-k":
        return n, dimension(min(n, max(max_entries, 0).bit_length()))
    return n, dimension(n)


def _charge(what: str, dim: int, max_entries: int) -> None:
    """Refuse a built-in whose dim^3 structure constants exceed max_entries,
    before anything is built."""
    if dim**3 > max_entries:
        raise SizeCap(f"{what}: dim^3 structure constants exceed the budget {max_entries}")


def _sub_spec(spec: str, max_entries: int) -> tuple:
    """Parse a dsum component like 'ut2', 'utn:3', 'matn:2', 'grassmann-k:2'
    into (constructor call, dimension)."""
    name, _, param = spec.partition(":")
    if name == "ut2":
        return (lambda: ut(2)), 3
    if name in _SIZED:
        n, dim = _sized(name, param or "0", max_entries)
        return (lambda: _SIZED[name][1](n)), dim
    raise BadParams(f"unknown dsum component {spec!r}")


def shipped_algebra_file(
    name: str, params: list[str], max_entries: int = DEFAULT_MAX_ENTRIES
) -> AlgebraFile:
    """The named built-in.  The sized families (utn, matn, grassmann-k, dsum)
    charge dim^3 structure constants to max_entries and raise SizeCap,
    naming the parameter, before they build anything."""
    if name == "ut2":
        if params:
            raise BadParams("ut2 takes no parameters")
        return AlgebraFile.from_algebra("ut2", ut(2))
    if name == "ut2-eps":
        if params:
            raise BadParams("ut2-eps takes no parameters")
        u2 = ut(2)
        eps = ad_unit(u2, 2, 2, name="eps")
        return AlgebraFile.from_algebra("ut2-eps", u2, [eps])
    if name == "ut2-eta":
        if len(params) != 2:
            raise BadParams("ut2-eta takes alpha and beta")
        alpha = _rational_param("ut2-eta alpha", params[0])
        beta = _rational_param("ut2-eta beta", params[1])
        if not alpha and not beta:
            raise BadParams("ut2-eta needs (alpha, beta) != (0, 0)")
        f = AlgebraFile.from_algebra("ut2-eta", ut(2))
        f.derivations = [("eta", _eta_matrix(alpha, beta))]
        return f
    if name in _SIZED:
        param, build, _ = _SIZED[name]
        if len(params) != 1:
            what = "the size n" if param == "n" else "the generator count k"
            raise BadParams(f"{name} takes {what}")
        n, dim = _sized(name, params[0], max_entries)
        _charge(f"parameter {name} {param} = {n}", dim, max_entries)
        label = "grassmann" if name == "grassmann-k" else name
        return AlgebraFile.from_algebra(f"{label}-{n}", build(n))
    if name == "dsum":
        if len(params) != 2:
            raise BadParams("dsum takes two component specs")
        (build_a, dim_a), (build_b, dim_b) = (_sub_spec(p, max_entries) for p in params)
        _charge(f"dsum {params[0]} {params[1]}", dim_a + dim_b, max_entries)
        alg = direct_sum(build_a(), build_b())
        label = f"dsum-{params[0]}-{params[1]}".replace(":", "")
        return AlgebraFile.from_algebra(label, alg)
    raise BadParams(f"unknown generator {name!r}")


def checksum(f: AlgebraFile) -> str:
    return hashlib.sha256(f.serialize().encode()).hexdigest()[:16]


def identify_shipped(f: AlgebraFile):
    """Match a parsed file against a shipped generator by name and checksum.

    For ut2-eta the eta coefficients vary, so the algebra part is matched and
    the single derivation is decomposed over {ad_e22, ad_e12}.  Returns
    (name, info dict) or None.
    """
    plain = {"ut2": [], "ut2-eps": []}
    if f.name in plain:
        ref = shipped_algebra_file(f.name, plain[f.name])
        if checksum(f) == checksum(ref):
            return f.name, {"checksum": checksum(f)}
        return None
    if f.name == "ut2-eta" and len(f.derivations) == 1:
        ref = shipped_algebra_file("ut2", [])
        stripped = AlgebraFile(
            name="ut2", dim=f.dim, table=f.table, unit=f.unit, derivations=[]
        )
        if checksum(stripped) != checksum(ref):
            return None
        flat = lambda m: [x for row in m.entries for x in row]
        in_eta_plane = span_coordinates([flat(_eta_matrix(1, 0)), flat(_eta_matrix(0, 1))])
        coords = in_eta_plane(flat(f.derivations[0][1]))
        if coords is None or (not coords[0] and not coords[1]):
            return None
        return "ut2-eta", {
            "checksum": checksum(f),
            "alpha": coords[0],
            "beta": coords[1],
        }
    return None


def known_formula(name: str, info: dict, action_names: list[str]):
    """(description, value function over n) for a identified shipped input."""
    if name == "ut2" and not action_names:
        return "2^(n-1)(n-2)+2", lambda n: 2 ** (n - 1) * (n - 2) + 2
    if (name, action_names) in (("ut2-eps", ["eps"]), ("ut2-eta", ["eta"])):
        return "2^(n-1)n+1", lambda n: 2 ** (n - 1) * n + 1
    return None
