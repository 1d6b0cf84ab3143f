"""Command-line front end: JSON in, JSON/DOT out, deterministic output.

Exit codes: 0 success, 1 mathematical-check failure (with witness), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus as corpusmod
from . import frames as framesmod
from . import support as supportmod
from . import tensor as tensormod
from . import topology as topomod
from .errors import InputError, LattikError, NotAFrame, TensorAxiomError, UnknownName
from .ideals import ideal_masks, prime_masks
from .jsonio import (
    datum_from_json,
    fields,
    lattice_from_json,
    lattice_to_json,
    poset_from_json,
    poset_to_dot,
    space_from_json,
    space_to_json,
    tensor_from_json,
)
from .order import is_distributive, is_morphism, set_label


class CheckFailure(LattikError):
    """A mathematical check failed; payload carries the witness."""

    def __init__(self, payload):
        super().__init__("check failed")
        self.payload = payload


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} is nested too deeply") from exc


def _load_lattice(path):
    return lattice_from_json(_load_json(path))


def _map_from_json(images, source, target, what):
    """Index in ``target`` of the image of each name in ``source``, read from a JSON map.

    The keys of the map must be exactly the names in ``source``.
    """
    if not isinstance(images, dict):
        raise InputError(f"map must be an object from {what}")
    mapping = []
    for e in source:
        if e not in images:
            raise InputError(f"map has no image for {e!r}")
        if images[e] not in target:
            raise InputError(f"image {images[e]!r} of {e!r} is unknown")
        mapping.append(target.index(images[e]))
    for key in images:
        if key not in source:
            raise UnknownName(f"map key {key!r} names nothing in the source")
    return tuple(mapping)


def cmd_validate(args):
    name, lattice = _load_lattice(args.file)
    return {
        "name": name,
        "size": lattice.n,
        "elements": list(lattice.elements),
        "bottom": lattice.elements[lattice.bottom],
        "top": lattice.elements[lattice.top],
        "distributive": is_distributive(lattice),
    }


def cmd_ideals(args):
    name, lattice = _load_lattice(args.file)
    masks = ideal_masks(lattice)
    return {
        "name": name,
        "count": len(masks),
        "ideals": [lattice.subset_names(m) for m in masks],
    }


def cmd_primes(args):
    name, lattice = _load_lattice(args.file)
    return {
        "name": name,
        "primes": [lattice.subset_names(m) for m in prime_masks(lattice)],
    }


SPECTRUM_VERBS = {
    "sp": "semilattice-closed",
    "spectrum": "lattice-closed",
    "hochster": "lattice-open",
}


def cmd_spectrum(args):
    """The verbs of SPECTRUM_VERBS, each a flavor: the space, its points, supp of each element."""
    name, lattice = _load_lattice(args.file)
    spec = supportmod.spectrum_for(lattice, SPECTRUM_VERBS[args.verb])
    return {
        "space": space_to_json(spec.space),
        "points": list(spec.space.points),
        "supp": {
            e: spec.space.subset_names(m)
            for e, m in zip(lattice.elements, spec.supp.sigma)
        },
        "name": name,
    }


def cmd_support_check(args):
    d = datum_from_json(_load_json(args.file))
    report = supportmod.validate_support_datum(d)
    if not report.ok:
        raise CheckFailure(report.to_json())
    return report.to_json()


def cmd_adjunction(args):
    flavors = [args.flavor] if args.flavor else list(topomod.FLAVORS)
    if args.corpus_max_n is not None:
        if args.lattice or args.space:
            raise InputError("give LATTICE and SPACE files or --corpus-max-n, not both")
        lattices = corpusmod.lattice_corpus(args.corpus_max_n)
        spaces = corpusmod.space_corpus(3 if args.space_points is None else args.space_points)
    else:
        if not (args.lattice and args.space):
            raise InputError("need LATTICE and SPACE files, or --corpus-max-n")
        if args.space_points is not None:
            raise InputError("--space-points needs --corpus-max-n, not LATTICE and SPACE files")
        lattices = [_load_lattice(args.lattice)[1]]
        spaces = [space_from_json(_load_json(args.space))]
    certs = [
        supportmod.check_adjunction(l, x, flavor, args.size_guard)
        for flavor in flavors
        for l in lattices
        for x in spaces
    ]
    out = {
        "pairs": len(certs),
        "all_bijective": all(c.bijection for c in certs),
        "certificates": [c.to_json() for c in certs],
    }
    if not out["all_bijective"]:
        raise CheckFailure(out)
    return out


def cmd_naturality(args):
    lattice_obj, x_obj, y_obj, images, flavor = fields(
        _load_json(args.file), "input", "lattice", "space_x", "space_y", "map", "flavor"
    )
    _, lattice = lattice_from_json(lattice_obj)
    x = space_from_json(x_obj)
    y = space_from_json(y_obj)
    g = _map_from_json(images, x.points, y.points, "points of space_x to points of space_y")
    topomod.flavor_of(flavor)
    cert = supportmod.check_naturality(lattice, g, x, y, flavor, args.size_guard)
    if not cert.ok:
        raise CheckFailure(cert.to_json())
    return cert.to_json()


def _as_frame(lattice):
    """as_frame, with a non-frame reported as a check failure with its witness."""
    try:
        return framesmod.as_frame(lattice)
    except NotAFrame as exc:
        raise CheckFailure({"not_a_frame": True, "witness": exc.witness}) from exc


def _frame_of(args):
    name, lattice = _load_lattice(args.file)
    return name, _as_frame(lattice)


def cmd_frame_points(args):
    name, frame = _frame_of(args)
    pt = framesmod.points(frame, args.size_guard)
    return {
        "name": name,
        "point_count": pt.space.n,
        "space": space_to_json(pt.space),
    }


def cmd_extend(args):
    lattice_obj, frame_obj, images = fields(
        _load_json(args.file), "input", "lattice", "frame", "map"
    )
    _, lattice = lattice_from_json(lattice_obj)
    _, frame = lattice_from_json(frame_obj)
    _as_frame(frame)
    phi = _map_from_json(images, lattice.elements, frame.elements, "lattice to frame elements")
    if not is_morphism(lattice, frame, phi, "blat"):
        raise CheckFailure(
            {
                "reason": "map is not a bounded-lattice morphism",
                "map": {e: images[e] for e in lattice.elements},
            }
        )
    psi = framesmod.extend_morphism(lattice, frame, phi)
    ideals = [set_label(lattice.elements, m) for m in ideal_masks(lattice)]
    return {"extension": {i: frame.elements[v] for i, v in zip(ideals, psi)}}


def _load_tensor(args):
    try:
        return tensor_from_json(_load_json(args.file))
    except TensorAxiomError as exc:
        raise CheckFailure(
            {"axiom": type(exc).__name__, "witness": exc.witness}
        ) from exc


def cmd_tensor_validate(args):
    name, t = _load_tensor(args)
    return {
        "name": name,
        "size": t.n,
        "unit": t.base.elements[t.unit],
        "associative": tensormod.is_associative(t),
    }


def cmd_radicals(args):
    name, t = _load_tensor(args)
    masks = tensormod.radical_masks(t)
    return {
        "name": name,
        "count": len(masks),
        "radical_tensor_ideals": [t.base.subset_names(m) for m in masks],
    }


def cmd_quotient(args):
    name, t = _load_tensor(args)
    try:
        lattice, projection = tensormod.quotient_lattice(t)
    except tensormod.QuotientFormulaError as exc:
        raise CheckFailure({"reason": exc.reason, "pair": list(exc.pair)}) from exc
    return {
        "name": name,
        "quotient": lattice_to_json(lattice),
        "projection": {
            e: lattice.elements[projection[a]]
            for a, e in enumerate(t.base.elements)
        },
    }


def _lattice_of(args):
    return _load_lattice(args.file)


CERTIFY_VERBS = {
    "spatial": (_frame_of, framesmod.is_spatial),
    "pt-vs-hochster": (_lattice_of, framesmod.pt_ideal_vs_hochster),
    "id-vs-omega": (_lattice_of, lambda l, guard: framesmod.id_vs_omega_dual(l)),
    "tensor-lemma": (_load_tensor, lambda t, guard: tensormod.check_tensor_lemma(t)),
    "classify": (_load_tensor, lambda t, guard: tensormod.check_classification(t)),
}


def _certify(check, obj, guard):
    cert = check(obj, guard)
    if not cert:
        raise CheckFailure(cert.to_json())
    return cert


def cmd_certify(args):
    """The verbs of CERTIFY_VERBS: load, certify, a witness on failure, the name last.

    ``--fuzz COUNT`` (tensor-lemma and classify only) certifies COUNT fuzzed
    tensor lattices over lattice_corpus(5) instead of a file.
    """
    load, check = CERTIFY_VERBS[args.verb]
    fuzz = getattr(args, "fuzz", None)
    if fuzz is not None:
        if fuzz < 1:
            raise InputError(f"--fuzz must be positive, got {fuzz}")
        if args.file is not None:
            raise InputError("give FILE or --fuzz, not both")
        count = 0
        bases = corpusmod.lattice_corpus(5)
        for t in tensormod.fuzz_tensor_lattices(bases, args.seed, fuzz):
            _certify(check, t, args.size_guard)
            count += 1
        return {"fuzzed": count, "all_ok": True}
    if args.file is None:
        raise InputError("need FILE or --fuzz")
    name, obj = load(args)
    out = _certify(check, obj, args.size_guard).to_json()
    out["name"] = name
    return out


def cmd_corpus(args):
    levels = corpusmod.all_lattices(args.max_n)
    counts = {n + 1: len(level) for n, level in enumerate(levels)}
    expected = {
        n: corpusmod.LATTICE_COUNTS[n] for n in counts
    }
    out = {
        "max_n": args.max_n,
        "counts": counts,
        "expected": expected,
        "ok": counts == expected,
    }
    if args.dump:
        out["lattices"] = [
            lattice_to_json(lat, name=f"L{n+1}_{i}")
            for n, level in enumerate(levels)
            for i, lat in enumerate(level)
        ]
    if not out["ok"]:
        raise CheckFailure(out)
    return out


def cmd_dot(args):
    obj = _load_json(args.file)
    if isinstance(obj, dict) and "points" in obj:
        space = space_from_json(obj)
        poset = topomod.specialization_order(space)
        return poset_to_dot(poset, name="specialization")
    name, poset = poset_from_json(obj)
    return poset_to_dot(poset, name=name or "poset")


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args never changes it."""
    parser = argparse.ArgumentParser(
        prog="lattik",
        description="Finite lattice spectra, support data, frames, and tensor ideals",
    )
    parser.add_argument("--size-guard", type=int, default=None, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, fn, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.set_defaults(fn=fn)
        return p

    for verb, fn in [
        ("validate", cmd_validate),
        ("ideals", cmd_ideals),
        ("primes", cmd_primes),
        *((verb, cmd_spectrum) for verb in SPECTRUM_VERBS),
        ("support-check", cmd_support_check),
        ("naturality", cmd_naturality),
        ("frame-points", cmd_frame_points),
        ("spatial", cmd_certify),
        ("extend", cmd_extend),
        ("pt-vs-hochster", cmd_certify),
        ("id-vs-omega", cmd_certify),
        ("tensor-validate", cmd_tensor_validate),
        ("radicals", cmd_radicals),
        ("quotient", cmd_quotient),
        ("dot", cmd_dot),
    ]:
        p = add(verb, fn)
        p.add_argument("file")

    p = add("adjunction", cmd_adjunction)
    p.add_argument("lattice", nargs="?")
    p.add_argument("space", nargs="?")
    p.add_argument("--flavor", choices=list(topomod.FLAVORS), default=None)
    p.add_argument("--corpus-max-n", type=int, default=None, metavar="N")
    p.add_argument("--space-points", type=int, default=None, metavar="K")

    for verb in ("tensor-lemma", "classify"):
        p = add(verb, cmd_certify)
        p.add_argument("file", nargs="?")
        p.add_argument("--fuzz", type=int, default=None, metavar="COUNT")

    p = add("corpus", cmd_corpus)
    p.add_argument("--max-n", type=int, default=6, metavar="N")
    p.add_argument("--dump", action="store_true")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.size_guard is not None and args.size_guard < 1:
            raise InputError(f"--size-guard must be positive, got {args.size_guard}")
        result = args.fn(args)
    except CheckFailure as exc:
        print(json.dumps({"ok": False, "witness": exc.payload}, indent=2))
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LattikError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
