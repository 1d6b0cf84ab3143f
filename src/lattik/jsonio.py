"""JSON and DOT serialization for lattices, spaces, and support data."""

from __future__ import annotations

from .errors import InputError, UnknownName
from .order import as_bounded_lattice, bits, build_poset
from .tensor import TensorLattice
from .topology import FiniteSpace, SupportDatum, flavor_of


def _strings(value, what):
    """value, if it is a list of strings; else an InputError naming what."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{what} must be a list of strings")
    return value


def fields(obj, what, *names):
    """The values of the named fields of a JSON object; InputError naming what otherwise."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    for name in names:
        if name not in obj:
            raise InputError(f"missing {what} field: {name!r}")
    return [obj[name] for name in names]


def _point_mask(points, names, what):
    """The mask of the named points; InputError naming what, UnknownName for a stranger."""
    mask = 0
    for p in _strings(names, what):
        if p not in points:
            raise UnknownName(f"unknown point {p!r}")
        mask |= 1 << points.index(p)
    return mask


def poset_from_json(obj):
    """Parse the lattice JSON carrier: name, elements, leq pairs."""
    (elements,) = fields(obj, "lattice", "elements")
    elements = _strings(elements, "elements")
    leq = obj.get("leq", [])
    if not isinstance(leq, list) or any(len(_strings(p, "each leq pair")) != 2 for p in leq):
        raise InputError("leq must be a list of [a, b] pairs")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise InputError("name must be a string")
    return name, build_poset(elements, [tuple(p) for p in leq])


def lattice_from_json(obj):
    name, poset = poset_from_json(obj)
    return name, as_bounded_lattice(poset)


def tensor_from_json(obj):
    """Parse a lattice JSON with its optional tensor section into a TensorLattice."""
    name, base = lattice_from_json(obj)
    section = obj.get("tensor")
    if not isinstance(section, dict):
        raise InputError("lattice JSON has no tensor section")
    unit, table = fields(section, "tensor", "unit", "table")
    unit = base.index(unit)
    if not isinstance(table, list) or len(table) != base.n or any(
        len(_strings(row, "each tensor table row")) != base.n for row in table
    ):
        raise InputError("tensor table must be square over the carrier")
    product = [[base.index(cell) for cell in row] for row in table]
    return name, TensorLattice(base, product, unit)


def lattice_to_json(lattice, name=""):
    pairs = []
    for i in range(lattice.n):
        for j in bits(lattice.covers(i)):
            pairs.append([lattice.elements[i], lattice.elements[j]])
    return {
        "name": name,
        "elements": list(lattice.elements),
        "leq": pairs,
    }


def space_from_json(obj):
    points, opens = fields(obj, "space", "points", "opens")
    points = _strings(points, "points")
    if not isinstance(opens, list):
        raise InputError("opens must be a list")
    masks = [_point_mask(points, u, "each open") for u in opens]
    try:
        return FiniteSpace(points, masks)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def space_to_json(space):
    return {
        "points": list(space.points),
        "opens": [space.subset_names(u) for u in space.opens],
    }


def datum_from_json(obj):
    """Parse {"lattice":..., "space":..., "flavor":..., "sigma": {elem: [points]}}."""
    lattice_obj, space_obj, flavor, images = fields(
        obj, "datum", "lattice", "space", "flavor", "sigma"
    )
    _, lattice = lattice_from_json(lattice_obj)
    space = space_from_json(space_obj)
    flavor_of(flavor)
    if not isinstance(images, dict):
        raise InputError("sigma must be an object from elements to lists of points")
    sigma = []
    for e in lattice.elements:
        if e not in images:
            raise InputError(f"sigma missing element {e!r}")
        sigma.append(_point_mask(space.points, images[e], "each sigma value"))
    for key in images:
        if key not in lattice.elements:
            raise UnknownName(f"sigma key {key!r} names no element")
    return SupportDatum(lattice, space, sigma, flavor)


def _dot_quote(s):
    return '"' + s.replace('"', '\\"') + '"'


def poset_to_dot(p, name="poset"):
    """Hasse diagram (cover edges only) in deterministic node order."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    for e in p.elements:
        lines.append(f"  {_dot_quote(e)};")
    for i in range(p.n):
        for j in bits(p.covers(i)):
            lines.append(f"  {_dot_quote(p.elements[i])} -> {_dot_quote(p.elements[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
