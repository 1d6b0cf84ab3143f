"""Source-level checks on the lattik package."""

import ast
import contextlib
import importlib
import io
from functools import cache, reduce
from pathlib import Path

import lattik
from lattik.topology import FLAVORS

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


@cache
def lattik_modules():
    """``(path, tree)`` for each module of lattik, in path order, each parsed once."""
    return tuple(
        (path, ast.parse(path.read_text()))
        for path in sorted(Path(lattik.__file__).parent.glob("*.py"))
    )


def unread_parameters():
    """``module:function:parameter`` for every parameter of a def or lambda in lattik
    that its body never reads; a lambda's function is ``<lambda>``."""
    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node.body
            else:
                continue
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            out += [f"{path.stem}:{name}:{a.arg}" for a in params if a.arg not in read]
    return out


def test_every_parameter_is_read():
    # a parameter that no body reads is a dead knob.  The one exception is the
    # three CERTIFY_VERBS adapters of cli, which take a guard they do not need so
    # that every check has one (obj, guard) signature
    assert unread_parameters() == ["cli:<lambda>:guard"] * 3


def test_every_guard_parameter_is_read():
    # the guard of a def, read off the general scan: every def that takes one
    # bounds an enumeration by it
    assert [p for p in unread_parameters() if p.endswith(":guard") and "<lambda>" not in p] == []


def function_imports():
    """``module:function`` for every def whose body holds an import statement."""
    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(n, (ast.Import, ast.ImportFrom))
                for stmt in node.body
                for n in ast.walk(stmt)
            ):
                out.append(f"{path.stem}:{node.name}")
    return out


def test_no_import_inside_a_function():
    # imports sit at the top of each module, where an import cycle shows at once
    assert function_imports() == []


def unread_imports():
    """``path:name`` for every name an import binds that its file never reads.

    The files are the modules of lattik but ``__init__``, which re-exports,
    and those of tests/ and demos/.  ``import a.b`` binds ``a``; a
    ``__future__`` import binds no name.
    """
    files = [(path, tree) for path, tree in lattik_modules() if path.stem != "__init__"]
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        files.append((path, ast.parse(path.read_text())))
    out = []
    for path, tree in files:
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append(f"{path.parent.name}/{path.name}:{name}")
    return out


def test_every_import_is_read():
    # support re-exports validate_support_datum: the CLI and the bench read it there
    assert [x for x in unread_imports() if x != "lattik/support.py:validate_support_datum"] == []


def sigma_of_map_callers():
    """``module:function`` for every def in lattik whose body calls sigma_of_map."""
    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "sigma_of_map"
                for stmt in node.body
                for n in ast.walk(stmt)
            ):
                out.append(f"{path.stem}:{node.name}")
    return out


def test_no_function_calls_sigma_of_map():
    # Σ of a map is computed in one place, the bit-sliced _sigma_lanes, which
    # also decides every failure; sigma_of_map is its one-lane API for callers
    assert sigma_of_map_callers() == []


def instance_dict_reads():
    """``module:line`` for every call to ``vars`` and every ``__dict__`` in lattik."""
    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            if (called and node.func.id == "vars") or (
                isinstance(node, ast.Attribute) and node.attr == "__dict__"
            ):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_instance_dict_is_read():
    # on CPython 3.11 reading an instance's __dict__ turns its inline attributes
    # into a dict, and every later attribute load on it gets slower
    assert instance_dict_reads() == []


def private_attribute_probes():
    """``module:line`` for every getattr or hasattr of an underscore-named attribute."""
    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and str(node.args[1].value).startswith("_")
            ):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_private_attribute_is_probed():
    # a table that one module keeps on another's object is declared in that
    # object's __init__ and read as a plain attribute
    assert private_attribute_probes() == []


def unread_tables():
    """``module:Class._name`` for every underscore attribute that a class's
    ``__init__`` sets on self and no code of the class's own module reads."""
    out = []
    for path, tree in lattik_modules():
        read = {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for n in ast.walk(init):
                    if (
                        isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"
                        and n.attr.startswith("_")
                        and n.attr not in read
                    ):
                        out.append(f"{path.stem}:{cls.name}.{n.attr}")
    return out


def test_tables_are_read_by_their_owner():
    # a table lives on the object of the module that reads it; the spectra of a
    # lattice are the one exception, kept on it by topology.spectrum_for
    assert unread_tables() == ["order:BoundedLattice._spectra"]


def first_use_tables():
    """``module:Class._name`` for every ``self._name = None`` in the ``__init__`` of a
    lattik class: a table that the object builds on first use, not with itself."""
    out = []
    for path, tree in lattik_modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for n in ast.walk(init):
                    if (
                        isinstance(n, ast.Assign)
                        and isinstance(n.value, ast.Constant)
                        and n.value.value is None
                    ):
                        out += [
                            f"{path.stem}:{cls.name}.{t.attr}"
                            for t in n.targets
                            if isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            and t.attr.startswith("_")
                        ]
    return out


def test_no_new_first_use_table():
    # a table derived from an object's generators is built with it, or by its
    # one reader; only the pair lists and the set lattices of a space, which
    # cost memory and time on large objects that never need them, wait for use
    assert first_use_tables() == [
        "order:BoundedLattice._join_pairs",
        "order:BoundedLattice._meet_pairs",
        "topology:FiniteSpace._cl",
        "topology:FiniteSpace._omega",
    ]


def innermost_defs(tree):
    """{node: the name of its innermost enclosing def} for every node in a def."""
    owner = {}
    for node in ast.walk(tree):  # an outer def is walked before the defs inside it
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((n, node.name) for n in ast.walk(node))
    return owner


def low_bit_idioms():
    """``module:function`` for every ``x & -x`` in lattik, by its innermost def."""
    out = []
    for path, tree in lattik_modules():
        owner = innermost_defs(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
                continue
            for x, neg in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(neg, ast.UnaryOp)
                    and isinstance(neg.op, ast.USub)
                    and ast.dump(neg.operand) == ast.dump(x)
                ):
                    out.append(f"{path.stem}:{owner.get(node, '<module>')}")
    return out


def test_one_bit_iterator():
    # order.bits is the iterator over the set bits of a mask, and the search
    # engine pops its candidates inline; every other loop over bits calls bits
    found = low_bit_idioms()
    assert "order:bits" in found
    assert [x for x in found if x not in ("order:bits", "order:scheduled_search")] == []


def unvalidated_constructions():
    """``module:function`` for every ``__new__`` in lattik, by its innermost def."""
    out = []
    for path, tree in lattik_modules():
        owner = innermost_defs(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                out.append(f"{path.stem}:{owner.get(node, '<module>')}")
    return out


def test_one_unvalidated_constructor():
    # a Poset skips Poset.__init__ only where it extends a validated order by
    # a checked down-set, so no other caller obtains an order never checked
    assert unvalidated_constructions() == ["order:maximal_extension"]


def shifted_by(node):
    """The shifted operand e of a ``m >> e & 1`` node, else None."""
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.RShift)
    ):
        return node.left.right
    return None


def mask_sums():
    """``module:function`` for every hand-rolled mask preimage in lattik, by its innermost def.

    That is a ``sum(1 << i for ... if ...)`` whose condition tests a bit
    ``m >> e & 1``, e being a subscript or a loop variable other than i.
    """
    out = []
    for path, tree in lattik_modules():
        owner = innermost_defs(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                continue
            gen = node.args[0]
            elt = gen.elt
            if not (
                isinstance(elt, ast.BinOp)
                and isinstance(elt.op, ast.LShift)
                and isinstance(elt.left, ast.Constant)
                and elt.left.value == 1
            ):
                continue
            loop_vars = {
                n.id for c in gen.generators for n in ast.walk(c.target) if isinstance(n, ast.Name)
            }
            loop_vars -= {n.id for n in ast.walk(elt.right) if isinstance(n, ast.Name)}
            tested = [
                shifted_by(n) for c in gen.generators for cond in c.ifs for n in ast.walk(cond)
            ]
            if any(
                isinstance(e, ast.Subscript) or (isinstance(e, ast.Name) and e.id in loop_vars)
                for e in tested
            ):
                out.append(f"{path.stem}:{owner.get(node, '<module>')}")
    return out


def test_one_mask_preimage():
    # order.preimage is the one preimage of a mask along an image tuple
    assert mask_sums() == ["order:preimage"]


def fibre_loops():
    """``module:function`` for every one-hot ``t[k] |= 1 << e`` into a subscripted table."""
    out = []
    for path, tree in lattik_modules():
        owner = innermost_defs(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.LShift)
                and isinstance(node.value.left, ast.Constant)
                and node.value.left.value == 1
            ):
                out.append(f"{path.stem}:{owner.get(node, '<module>')}")
    return sorted(set(out))


def test_fibre_tables_go_through_transpose():
    # a table of fibres, out[y] = the i with row i pointing at y, is the
    # transpose of one-hot rows, built by order.transpose; build_poset's loop
    # sets the bits of an edge list into the up-sets, which is no transpose
    assert fibre_loops() == ["order:build_poset"]


def flavor_comparisons():
    """``module:line`` for every ==, !=, in or not in in lattik with an operand that is
    a flavor name, or a tuple of flavor names."""

    def is_name(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(map(is_name, node.elts))
        return isinstance(node, ast.Constant) and node.value in FLAVORS

    out = []
    for path, tree in lattik_modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
                and any(map(is_name, [node.left, *node.comparators]))
            ):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_flavor_name_is_compared():
    # what a flavor decides is read off its row of topology.FLAVORS, so that a
    # new flavor is one more row and not one more test at every site
    assert flavor_comparisons() == []


def tracer_names(variable):
    """The ``"<module>.<name>"`` strings of a tuple assigned in bench/tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == variable for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py assigns no {variable}")


def test_bench_tracer_names_resolve():
    # tier-1 does not run the benchmark's own tests, so a renamed function would
    # otherwise pass here and break ``bench/run.py --trace 1``
    for name in tracer_names("SPANNED") + tracer_names("COUNTED"):
        module, *path = name.split(".")
        obj = reduce(getattr, path, importlib.import_module(f"lattik.{module}"))
        assert callable(obj), name


def attribute_chain(node):
    """``["a", "b", "c"]`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def bench_lattik_chains():
    """``(module, name, ...)`` for every lattik name that a file of bench/ reads.

    The bench reaches lattik through ``lk``, the namespace of ``fresh_import``:
    as ``lk.<module>.<name>...``, or as ``<alias>.<name>...`` after
    ``<alias> = lk.<module>``, plain or in a tuple assignment.  The bench
    tracer, not lattik, sets ``__bench_wrapped__``, so a chain stops before it.
    """
    out = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        chain = attribute_chain(value)
                        if isinstance(name, ast.Name) and chain and chain[0] == "lk":
                            aliases[name.id] = chain[1:]
        for node in ast.walk(tree):
            chain = attribute_chain(node) or [""]
            if "__bench_wrapped__" in chain:
                chain = chain[: chain.index("__bench_wrapped__")]
            if chain[0] == "lk" and len(chain) >= 3:
                out.add(tuple(chain[1:]))
            elif chain[0] in aliases and len(chain) >= 2:
                out.add((*aliases[chain[0]], *chain[1:]))
    return sorted(out)


def test_bench_lattik_names_resolve():
    # tier-1 does not run bench/test_bench.py, so a renamed function would
    # otherwise pass here and break the benchmark or its tests
    chains = bench_lattik_chains()
    read = {".".join(chain) for chain in chains}
    assert {
        "support.check_adjunction",
        "corpus.all_lattices",
        "jsonio.lattice_to_json",
        "tensor.fuzz_tensor_lattices",
        "support._SPECTRUM_OF_FLAVOR.values",
        "support.SupportDatum.__eq__",
        "frames.enumerate_morphisms",
    } <= read
    for module, *names in chains:
        reduce(getattr, names, importlib.import_module(f"lattik.{module}"))


def readme_usage():
    """The lines of the ```python block under the README's Usage heading."""
    text = (ROOT / "README.md").read_text().split("## Usage", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_usage_runs_and_prints_its_comments():
    lines = readme_usage()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in lines if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, got in zip(prints, printed):
        if "# " in line:
            assert got == line.split("# ", 1)[1]
