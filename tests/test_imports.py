"""Every imported name in the sources and tests is read somewhere; every
module-level definition of the package and every method and property of
its classes is read in the sources or exported by the package.

``tauforge/__init__.py`` is skipped: its imports are the package's
re-exports.  ``from __future__`` imports are directives, not names.

The definitions scan matches a method by its bare name, whatever object
the read is on: a method survives it when src/ reads a method of the same
name on another class, or a builtin's (``list.index``), so such a
definition must be found by reading the sources.
"""

import ast
from pathlib import Path

from tauforge import cli

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")
PACKAGE = ROOT / "src" / "tauforge"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_scan_sees_unread_imports():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "os.sep\n") == []


def test_no_unread_imports():
    assert len(FILES) > 10
    found = {str(path.relative_to(ROOT)): unused
             for path in FILES if (unused := unused_imports(path.read_text()))}
    assert found == {}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_definitions(source: str) -> dict[str, int]:
    """Module-level functions, classes and assigned names, dunders aside,
    and the methods and properties of module-level classes as
    ``Class.name``."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item.lineno)
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not is_dunder(item.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for target in node.targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not is_dunder(name):
                found[name] = node.lineno
    return found


def names_read(source: str) -> set[str]:
    """Names loaded bare (``f``) or as an attribute (``mod.f``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_scan_sees_unread_definitions():
    source = ("A = 1\nB, C = 2, 3\n__all__ = []\ndef f(): return g.h\n"
              "class K: pass\nD: int = A\n"
              "class M:\n    def m(self): pass\n    @property\n    def p(self): pass\n"
              "    def __eq__(self, other): pass\n    x = 1\n")
    assert module_definitions(source) == \
        {"A": 1, "B": 2, "C": 2, "f": 4, "K": 5, "D": 6, "M": 7, "M.m": 8,
         "M.p": 10}
    assert names_read(source) == {"A", "g", "h", "int", "property"}


def test_no_unread_definitions():
    # a read in tests/ does not count: src/ keeps what a command or an
    # export reads
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*(names_read(path.read_text()) for path in FILES
                         if path.is_relative_to(ROOT / "src")))
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    found = {path.name: unread for path in modules
             if (unread := [f"line {line}: {name}" for name, line
                            in module_definitions(path.read_text()).items()
                            if name.rpartition(".")[2] not in read
                            and name not in exported])}
    assert found == {}


KERNEL_PRIVATES = {"_BITS", "_FIELD", "_LIMIT", "_guard", "_layout", "_pack",
                   "_checked_pack", "_unpack"}


def kernel_privates_read(source: str) -> set[str]:
    """The names of the packed exponent layout a source imports or reads."""
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return KERNEL_PRIVATES & (imported | names_read(source))


def test_one_product_kernel():
    # the packed exponent layout (field width, guard bits, packing) is
    # known only to mpoly, where the one product kernel, mpoly.dot, lives,
    # so neither a second multiply loop nor a second expansion on packed
    # keys can come back
    assert kernel_privates_read("from .mpoly import _guard as g, _pack, _BITS\n"
                                "mpoly._LIMIT\nmpoly._unpack(k, 2) & mpoly._FIELD\n"
                                "mpoly._layout(2)\nmpoly._checked_pack(e, 2)\n") == \
        KERNEL_PRIVATES
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "mpoly.py"]
    assert len(modules) > 5
    found = {path.name: sorted(names) for path in modules
             if (names := kernel_privates_read(path.read_text()))}
    assert found == {}


TUPLE_EDGES = {"Fraction", "_unpack", "_grlex_key"}


def function_reads(source: str, name: str) -> set[str]:
    """The names read by the module-level function name of a source."""
    node, = (node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == name)
    return names_read(ast.unparse(node))


def test_kernels_stay_on_the_packed_form():
    # multiplication, linear combination (of derivatives too) and exact
    # division work on packed keys and integer numerators, so neither a
    # Fraction nor an exponent tuple comes back
    assert function_reads("def f(k):\n    return Fraction(_unpack(k, 2))\n"
                          "def g(e):\n    return _grlex_key(e)\n", "f") & TUPLE_EDGES == \
        {"Fraction", "_unpack"}
    source = (PACKAGE / "mpoly.py").read_text()
    kernels = ("dot", "lincomb", "dlincomb", "_lincomb_sum", "_derivative", "divexact")
    found = {name: sorted(TUPLE_EDGES & function_reads(source, name))
             for name in kernels}
    assert found == {name: [] for name in kernels}


def grammar_readers(source: str) -> set[str]:
    """The functions and methods of a source that read ``_RATIONAL``, and
    ``<import>`` if the source imports it."""
    tree = ast.parse(source)
    found = {"<import>" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name == "_RATIONAL"}
    return found | {node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and "_RATIONAL" in names_read(ast.unparse(node))}


def test_one_rational_grammar():
    # the "p/q" grammar is read in one routine, mpoly._ratio, which both
    # parse_rat and the polynomial reader call, so a second copy cannot
    # come back
    assert grammar_readers("from .mpoly import _RATIONAL\ndef f():\n    g()\n"
                           "class K:\n    def m(self):\n        mpoly._RATIONAL\n") == \
        {"<import>", "m"}
    found = {path.name: sorted(names) for path in PACKAGE.glob("*.py")
             if (names := grammar_readers(path.read_text()))}
    assert found == {"mpoly.py": ["_ratio"]}
    source = (PACKAGE / "mpoly.py").read_text()
    reader, = (node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef) and node.name == "from_json")
    assert "_ratio" in function_reads(source, "parse_rat")
    assert "_ratio" in names_read(ast.unparse(reader))


def reads_divexact(source: str) -> bool:
    """Whether a source imports or reads ``divexact``."""
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return "divexact" in imported | names_read(source)


def test_one_cancellation_rule():
    # tau is cancelled only where a Lax coefficient is printed, so a
    # second printed form of one value cannot come back
    assert reads_divexact("from .mpoly import divexact as d\n")
    assert reads_divexact("mpoly.divexact(p, tau)\n")
    assert not reads_divexact("from .mpoly import dot\n")
    found = sorted(path.name for path in PACKAGE.glob("*.py")
                   if path.name not in ("__init__.py", "mpoly.py")
                   and reads_divexact(path.read_text()))
    assert found == ["ratfun.py"]


INTEGER_FORM = {"_canonical", "_over_one_den", "IntVector", "to_ints", "from_ints"}
RETIRED_FORM = {"IntVector", "to_ints", "from_ints"}


def integer_form_reads(source: str) -> set[str]:
    """The names of FockVector's integer constructors (``_canonical`` and
    the ``_over_one_den`` it reads) and of the retired second vector form
    that a source imports or reads."""
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return INTEGER_FORM & (imported | names_read(source))


def test_one_fock_vector_form():
    # only fock.py builds a FockVector from integer numerators, and no
    # module keeps a second vector form, so the conversions cannot come back
    assert integer_form_reads("from .fock import IntVector, _over_one_den\n"
                              "FockVector._canonical(n, d)\nv.to_ints()\n"
                              "FockVector.from_ints(n, d)\n") == INTEGER_FORM
    found = {path.name: sorted(names) for path in PACKAGE.glob("*.py")
             if (names := integer_form_reads(path.read_text())
                 - (INTEGER_FORM - RETIRED_FORM if path.name == "fock.py" else set()))}
    assert found == {}
    assert integer_form_reads((PACKAGE / "fock.py").read_text()) == \
        INTEGER_FORM - RETIRED_FORM


ASSEMBLY = {"_wave", "_defect"}


def assembly_callers(source: str) -> set[str]:
    """The module-level functions and classes (``<module>`` outside any)
    that call ``_wave`` or ``_defect``, bare or as an attribute."""
    found = set()
    for node in ast.parse(source).body:
        caller = getattr(node, "name", "<module>")
        found.update(caller for call in ast.walk(node) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", getattr(call.func, "attr", None))
                     in ASSEMBLY)
    return found


def test_one_bosonic_assembly():
    # the wave factors and defects of hirota are assembled only in
    # bilinear_defects, so a second bosonic residue route cannot come back
    assert assembly_callers("def bilinear_defects():\n    [_wave() for _ in x]\n"
                            "def other():\n    hirota._defect()\n"
                            "class K:\n    def m(self): _wave()\n_defect()\n") == \
        {"bilinear_defects", "other", "K", "<module>"}
    found = {path.name: sorted(callers) for path in PACKAGE.glob("*.py")
             if (callers := assembly_callers(path.read_text()))}
    assert found == {"hirota.py": ["bilinear_defects"]}


def defaulted_parameters(source: str) -> dict[str, list[tuple[str, int | None, int]]]:
    """Parameters with a default of module-level functions and of the
    methods of module-level classes, constructors aside, keyed by the
    name a call uses: (parameter, index a positional argument fills or
    None if keyword-only, line)."""
    found = {}

    def add(fn, bound: bool):
        args = fn.args
        positional = [*args.posonlyargs, *args.args][1 if bound else 0:]
        params = [(a.arg, i) for i, a in enumerate(positional)][
            len(positional) - len(args.defaults):]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        if params:
            found.setdefault(fn.name, []).extend(
                (name, index, fn.lineno) for name, index in params)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name != "__init__"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    add(item, not static)
    return found


def calls_made(source: str) -> dict[str, tuple[int, set[str]]]:
    """Per called name (``f(..)`` or ``x.f(..)``): the most positional
    arguments any call passes and every keyword any call passes; a
    ``*args`` counts as every position and a ``**kwargs`` as every keyword."""
    made = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        most, keywords = made.get(name, (0, set()))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        most = max(most, float("inf") if starred else len(node.args))
        for kw in node.keywords:
            keywords.add("**" if kw.arg is None else kw.arg)
        made[name] = (most, keywords)
    return made


def unused_options(definitions, made) -> list[str]:
    out = []
    for fn, params in definitions.items():
        most, keywords = made.get(fn, (0, set()))
        out += [f"line {line}: {fn}({name})" for name, index, line in params
                if not (index is not None and index < most)
                and name not in keywords and "**" not in keywords]
    return out


def test_scan_sees_unused_options():
    source = ("def f(a, b=1, *, c=2, d=3): pass\n"
              "def g(x=0): pass\n"
              "class K:\n    def __init__(self, v=0): pass\n"
              "    def m(self, p=1, q=2): pass\n"
              "    @staticmethod\n    def s(r=1): pass\n"
              "f(1, c=3)\nk.m(5)\nK.s(*args)\n")
    definitions = defaulted_parameters(source)
    assert definitions == {"f": [("b", 1, 1), ("c", None, 1), ("d", None, 1)],
                           "g": [("x", 0, 2)], "m": [("p", 0, 5), ("q", 1, 5)],
                           "s": [("r", 0, 7)]}
    assert unused_options(definitions, calls_made(source)) == \
        ["line 1: f(b)", "line 1: f(d)", "line 2: g(x)", "line 5: m(q)"]
    assert unused_options(definitions, calls_made("g(**opts)\n")) == \
        ["line 1: f(b)", "line 1: f(c)", "line 1: f(d)", "line 5: m(p)",
         "line 5: m(q)", "line 7: s(r)"]


def test_no_unused_options():
    made = {}
    for path in FILES:
        for name, (most, keywords) in calls_made(path.read_text()).items():
            seen, seen_keywords = made.get(name, (0, set()))
            made[name] = (max(seen, most), seen_keywords | keywords)
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    found = {path.name: unused for path in modules
             if (unused := unused_options(defaulted_parameters(path.read_text()), made))}
    assert found == {}


def module_level_caches(source: str) -> list[str]:
    """Module-level names assigned an empty ``{}``, ``[]``, ``set()`` or
    ``dict()``, which is how a hand-rolled cache starts."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if (isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.List) and not value.elts
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "dict")
                and not value.args and not value.keywords):
            found += [f"line {node.lineno}: {ast.unparse(t)}" for t in targets]
    return found


def test_scan_sees_module_level_caches():
    source = ("A = {}\nB: dict[int, str] = {}\nC = []\nD = set()\nE = dict()\n"
              "F = {1: 2}\nG = [0]\nH = set(G)\nI: list\n"
              "def f():\n    J = {}\nclass K:\n    L = []\n")
    assert module_level_caches(source) == \
        ["line 1: A", "line 2: B", "line 3: C", "line 4: D", "line 5: E"]


def test_every_cache_is_one_the_bench_can_clear():
    # bench/run.py's clear_caches empties every module-level object with a
    # cache_clear before each set-up, so setup_s stays a cold time only
    # while every cache is an lru_cache: a module-level dict or list that
    # fills as jobs run would stay warm
    found = {path.name: caches for path in sorted(PACKAGE.glob("*.py"))
             if (caches := module_level_caches(path.read_text()))}
    assert found == {}
    assert callable(getattr(cli._parser, "cache_clear", None))


RETIRED_ELIMINATION = {"_eliminate", "_vec_sub", "_vec_scale", "_Echelon"}
PIVOT = {"min", "max"}


def call_name(node: ast.Call) -> str | None:
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def takes_multiple(node: ast.AST) -> bool:
    """Whether a node takes a multiple off a vector: ``v = f(.., v, ..)``
    (a pivot pick ``m = min(m, x)`` aside) or ``v = v - ..``, a
    difference whose right side is a product, or a ``-=``."""
    if isinstance(node, ast.Assign):
        value = node.value
        if isinstance(value, ast.Call):
            if call_name(value) in PIVOT:
                return False
        elif not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Sub)):
            return False
        loaded = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
        return any(isinstance(t, ast.Name) and t.id in loaded for t in node.targets)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)


def eliminations(source: str) -> list[str]:
    """The retired elimination helpers a source defines, and its loops
    that pick a pivot with min() or max() and take a multiple off a
    vector, as ``line n: name`` in line order."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in RETIRED_ELIMINATION):
            found.add((node.lineno, node.name))
        if isinstance(node, (ast.For, ast.While)):
            body = [n for stmt in node.body for n in ast.walk(stmt)]
            if (any(isinstance(n, ast.Call) and call_name(n) in PIVOT for n in body)
                    and any(map(takes_multiple, body))):
                found.add((node.lineno, "loop"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_sees_eliminations():
    # the retired Fraction-dict routine (a pivot by min, _vec_sub), an
    # in-place back-substitution, the retired MPoly rows (a lead by max,
    # lincomb); then a running minimum with a sum, and a lincomb that
    # reads a lead but takes nothing off the vector it rebinds
    source = ("def _vec_sub(a, b, c): pass\n"
              "class _Echelon: pass\n"
              "while vec:\n    p = min(vec)\n    vec = _vec_sub(vec, rows[p], c)\n"
              "for row in rows:\n    p = min(row)\n"
              "    for e, c in row.items():\n        vec[e] = vec.get(e, 0) - f * c\n"
              "while rest.num:\n    key = max(rest.num)\n"
              "    rest = lincomb(v, ((rest, 1), (rows[key], -c)))\n"
              "for x in xs:\n    best = min(best, x)\n    total = total + x\n"
              "for x in xs:\n    lo = max(x)\n    out = lincomb(v, [(x, 1), (y, -lo)])\n")
    assert eliminations(source) == ["line 1: _vec_sub", "line 2: _Echelon",
                                    "line 3: loop", "line 6: loop", "line 10: loop"]


def test_one_elimination_routine():
    # mpoly.Echelon is the only routine that takes row multiples off a
    # vector, so neither the Grassmannian's Fraction-dict elimination nor
    # the residue's own echelon form can come back
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := eliminations(path.read_text()))}
    assert list(found) == ["mpoly.py"]
    source = (PACKAGE / "mpoly.py").read_text()
    echelon, = (node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == "Echelon")
    loop, = (node for node in ast.walk(echelon) if isinstance(node, ast.While))
    assert found["mpoly.py"] == [f"line {loop.lineno}: loop"]


RETIRED_POINT_FORM = {"LaurentVector", "_column", "vec_mul_sk"}
# the Grassmannian's functions from the JSON file to the wedge: the reader,
# the row builder, the elimination, the shift, the wedge and the printer
POINT_JOB_PATH = {"point_rows", "_row", "reduce_point", "reduce_rows", "_shift",
                  "_stable_split", "_wedge", "generate_from_matrix", "GrPoint.to_json"}


def identifiers(source: str) -> set[str]:
    """Every name a source defines, imports or reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.add(value)
    return found


def rational_reads(source: str) -> dict[str, set[str]]:
    """Per module-level function and method (``Class.method``), the
    ``parse_rat`` reads and ``Fraction(`` calls in its body."""
    found = {}
    for top in ast.parse(source).body:
        methods = [(f"{top.name}.", node) for node in top.body] \
            if isinstance(top, ast.ClassDef) else [("", top)]
        for prefix, node in methods:
            if isinstance(node, ast.FunctionDef):
                found[prefix + node.name] = (
                    {"parse_rat"} & names_read(ast.unparse(node))
                    | {"Fraction(" for call in ast.walk(node)
                       if isinstance(call, ast.Call) and call_name(call) == "Fraction"})
    return found


def test_scan_sees_point_form():
    source = ("LaurentVector = dict\nfrom .g import vec_mul_sk as v\n"
              "def f(x: Fraction):\n    return mpoly.parse_rat(x)\n"
              "class P:\n    def to_json(self):\n        return Fraction(1, 2)\n"
              "    def g(self):\n        return self._column\n")
    assert identifiers(source) & RETIRED_POINT_FORM == RETIRED_POINT_FORM
    assert rational_reads(source) == {"f": {"parse_rat"}, "P.to_json": {"Fraction("},
                                      "P.g": set()}


def test_one_point_form():
    # a point's vectors are integer rows from the file to the wedge: the
    # Laurent-dict form and its helpers cannot come back anywhere, and the
    # job path of grassmann.py builds no Fraction and reads no parse_rat
    found = {path.name: sorted(names) for path in sorted(PACKAGE.glob("*.py"))
             if (names := identifiers(path.read_text()) & RETIRED_POINT_FORM)}
    assert found == {}
    reads = rational_reads((PACKAGE / "grassmann.py").read_text())
    assert POINT_JOB_PATH <= set(reads)
    assert {name: sorted(reads[name]) for name in POINT_JOB_PATH if reads[name]} == {}
