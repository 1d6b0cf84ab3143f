"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload builds its inputs in ``setup`` (timed as set-up), runs every
item once per pass in ``run`` (the timed phase, one caller, closed loop) and
turns the per-item records into a digest in ``finish`` (untimed).  Every call
into lattik goes through the module attribute at call time, so the tracer's
wrappers see it.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"

# Bounded lattices on n elements up to isomorphism (OEIS A006966).
A006966 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}

_MODULES = ("lattik", "lattik.corpus", "lattik.jsonio")


def fresh_import():
    """Import lattik from ``src`` anew, as a new process would.

    Returns a namespace with one attribute per lattik module ("order",
    "support", ...) and ``modules``, the full-name -> module map.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "lattik" or m.startswith("lattik.")]:
        del sys.modules[name]
    for name in _MODULES:
        importlib.import_module(name)
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "lattik" or name.startswith("lattik.")
    }
    short = {name.split(".", 1)[1]: mod for name, mod in modules.items() if "." in name}
    return SimpleNamespace(modules=modules, **short)


def run_items(ids, work, tracer, now):
    """Run ``work(i)`` for each item id in ``ids`` (a permutation of 0..n-1).

    Returns (seconds by item id as read on ``now``, failures).  An item fails
    when ``work`` returns false or raises; the first traceback goes to stderr
    and the loop keeps going.
    """
    seconds = [0.0] * len(ids)
    failed = 0
    for i in ids:
        span = tracer.begin_item(i) if tracer else None
        t0 = now()
        try:
            ok = work(i)
        except Exception:
            if not failed:
                traceback.print_exc(file=sys.stderr)
            ok = False
        seconds[i] = now() - t0
        if tracer:
            tracer.end_item(span)
        if not ok:
            failed += 1
    return seconds, failed


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class AdjunctionSweep:
    """``check_adjunction`` on every corpus lattice x space x flavor, serialized."""

    name = "adjunction_sweep"

    def __init__(self, max_n=6, points=3):
        self.max_n = max_n
        self.points = points

    def setup(self, lk, seed):
        lattices = lk.corpus.lattice_corpus(self.max_n)
        spaces = lk.corpus.space_corpus(self.points)
        # canonical item order is the CLI's: flavor, then lattice, then space
        items = [(l, x, f) for f in lk.support.FLAVORS for l in lattices for x in spaces]
        order = list(range(len(items)))
        random.Random(seed).shuffle(order)
        return items, order

    def run(self, lk, inputs, tracer, now):
        items, order = inputs
        support = lk.support
        out = [None] * len(items)

        def work(i):
            lattice, space, flavor = items[i]
            cert = support.check_adjunction(lattice, space, flavor)
            out[i] = _sha(json.dumps(cert.to_json(), sort_keys=True))
            return cert.bijection is True

        return run_items(order, work, tracer, now), out

    def finish(self, out):
        """(digest over items in canonical order, certificates)."""
        return _sha("\n".join(d or "-" for d in out)), len(out)


class CorpusBuild:
    """``all_lattices(max_n)`` plus the ``lattik corpus --dump`` serialization."""

    name = "corpus_build"

    def __init__(self, max_n=8):
        self.max_n = max_n

    def setup(self, lk, seed):
        # The sweep is exhaustive: the seed is recorded but selects nothing.
        return None

    def run(self, lk, inputs, tracer, now):
        corpus, jsonio = lk.corpus, lk.jsonio
        out = [None]

        def work(i):
            levels = corpus.all_lattices(self.max_n)
            counts = {n + 1: len(level) for n, level in enumerate(levels)}
            expected = {n: A006966[n] for n in range(1, self.max_n + 1)}
            dump = {
                "max_n": self.max_n,
                "counts": counts,
                "expected": expected,
                "ok": counts == expected,
                "lattices": [
                    jsonio.lattice_to_json(lat, name=f"L{n + 1}_{k}")
                    for n, level in enumerate(levels)
                    for k, lat in enumerate(level)
                ],
            }
            out[i] = (json.dumps(dump, indent=2), sum(counts.values()))
            return counts == expected

        return run_items([0], work, tracer, now), out

    def finish(self, out):
        """(digest of the dump, lattices built)."""
        if out[0] is None:
            return _sha("-"), 0
        text, lattices = out[0]
        return _sha(text), lattices


class TensorClassify:
    """The ``lattik classify --fuzz`` path: fuzzed structures, lemma and classification.

    Only associative structures are certified.  On a non-associative one,
    lattik's tensor lemma can fail and ``check_classification`` can raise
    (``lattik --seed 16 classify --fuzz 2789``); such draws are skipped inside
    the item that drew them and counted in ``skipped``.  README.md has the
    details.
    """

    name = "tensor_classify"

    def __init__(self, count=5000):
        self.count = count

    def setup(self, lk, seed):
        # the fuzz bases of the CLI
        return lk.corpus.lattice_corpus(5), seed

    def run(self, lk, inputs, tracer, now):
        bases, seed = inputs
        tensor = lk.tensor
        # the first draws do not depend on the count; twice is ample headroom
        draws = tensor.fuzz_tensor_lattices(bases, seed, 2 * self.count)
        records = [None] * self.count
        skipped = [0]

        def work(i):
            t = next(draws)
            while not tensor.is_associative(t):
                skipped[0] += 1
                t = next(draws)
            lemma = tensor.check_tensor_lemma(t)
            classification = tensor.check_classification(t)
            records[i] = (t, lemma, classification)
            return lemma.ok is True and classification.ok is True

        return run_items(range(self.count), work, tracer, now), (bases, records, skipped)

    def notes(self, out):
        """Structures skipped as not associative."""
        return {"skipped": out[2][0]}

    def finish(self, out):
        """(digest over structures in fuzz order, structures)."""
        bases, records, skipped = out
        base_index = {id(b): k for k, b in enumerate(bases)}
        lines = [
            "-"
            if r is None
            else json.dumps(
                {
                    "base": base_index[id(r[0].base)],
                    "unit": r[0].unit,
                    "product": r[0].product,
                    "lemma": r[1].to_json(),
                    "classification": r[2].to_json(),
                },
                sort_keys=True,
            )
            for r in records
        ]
        lines.append(f"skipped {skipped[0]}")
        return _sha("\n".join(lines)), len(records)


WORKLOADS = {w.name: w for w in (AdjunctionSweep, CorpusBuild, TensorClassify)}
