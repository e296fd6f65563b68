"""Static checks on the library source: no module imports a name it never
uses, every module-level private name is read somewhere in the library, every
defaulted parameter is set by at least one caller to a value other than its
default and left to its default by another, every name a comment or docstring
cites is defined, the library defines one exception class per kind of failure,
every loop is bounded by its input, and no scalar argument is range-checked by
hand."""

import ast
import builtins
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "covloc"
# __init__.py imports names only to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLER_SOURCES = sorted(
    p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in ``source`` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = (
        "import os\nimport numpy as np\nimport a.b\nfrom x import y, z as w\n"
        "def f():\n    from q import r\n    return np.pi, a.b, w\n"
    )
    assert unused_imports(source) == ["os", "r", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level _private functions, classes and constants of ``sources``
    that no source reads, by name or as an attribute."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(n for n in defined - read if re.match(r"_[A-Za-z]", n))


def test_unread_private_names_finds_only_module_level_names_nobody_reads():
    sources = [
        "_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
        "def _f():\n    return _A + m._g()\nclass _K:\n    _inner = 0\ndef pub():\n    pass\n",
        "def _g():\n    _local = 1\n    return _local\nx = _B\n",
    ]
    assert unread_private_names(sources) == ["_C", "_D", "_K", "_f"]


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text() for p in SRC.glob("*.py")]) == []


def _defaulted_parameters(tree):
    """(function name, parameter, position or None, default expression) for
    every defaulted parameter; positions count after ``self``/``cls``, and a
    class's ``__init__`` goes by the class name, as its callers spell it."""
    found = []
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    init_owner = {
        id(f): c.name for c in classes for f in c.body if getattr(f, "name", None) == "__init__"
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = init_owner.get(id(fn), fn.name)
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        first = len(positional) - len(fn.args.defaults)
        for pos, default in enumerate(fn.args.defaults, first):
            found.append((name, positional[pos], pos, default))
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found.append((name, arg.arg, None, default))
    return found


def _calls_by_name(trees):
    """Function name -> one (keyword -> argument, positional arguments,
    whether it passes ``*args`` or ``**kwargs``) per call."""
    calls = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords = {k.arg: k.value for k in call.keywords if k.arg}
            splat = any(isinstance(a, ast.Starred) for a in call.args)
            splat |= any(k.arg is None for k in call.keywords)
            calls.setdefault(name, []).append((keywords, call.args, splat))
    return calls


def _defaults_and_calls(definitions: str, callers: list[str]):
    """(function.parameter, default, [(argument the call sets it to or None,
    call passes a splat)]) for each defaulted parameter in ``definitions``.
    Calls match by function name alone."""
    calls = _calls_by_name(ast.parse(c) for c in callers)
    for name, param, pos, default in _defaulted_parameters(ast.parse(definitions)):
        outcomes = []
        for keywords, args, splat in calls.get(name, []):
            positional = args[pos] if pos is not None and pos < len(args) else None
            outcomes.append((keywords.get(param, positional), splat))
        yield f"{name}.{param}", default, outcomes


def _literal(node):
    """(value,) for a literal expression, None for anything else."""
    try:
        return (ast.literal_eval(node),)
    except (ValueError, TypeError, SyntaxError):
        return None


def unchanged_defaults(definitions: str, callers: list[str]) -> list[str]:
    """Each defaulted parameter in ``definitions`` that no call in
    ``callers`` sets, by keyword or by position, to a value other than its
    default, so the parameter has one value; a non-literal argument or a
    splat may differ."""

    def changes(arg, default):
        if arg is None:
            return False
        value = _literal(arg)
        return value is None or value != _literal(default)

    return sorted(
        name
        for name, default, outcomes in _defaults_and_calls(definitions, callers)
        if not any(splat or changes(arg, default) for arg, splat in outcomes)
    )


def always_set_defaults(definitions: str, callers: list[str]) -> list[str]:
    """Each defaulted parameter in ``definitions`` that some call in
    ``callers`` sets and every call sets, so its default is dead; a splat
    may leave it unset."""
    return sorted(
        name
        for name, _, outcomes in _defaults_and_calls(definitions, callers)
        if outcomes and all(arg is not None and not splat for arg, splat in outcomes)
    )


_DEFINITIONS = (
    "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
    "def g(x=0):\n    pass\n"
    "def h(y=0):\n    pass\n"
    "class K:\n"
    "    def __init__(self, p, q=None):\n        pass\n"
    "    def m(self, r=1, s=2):\n        pass\n"
)


def test_always_set_defaults_finds_only_parameters_every_call_sets():
    callers = [
        "f(0, 5, e=1)\nmod.f(0, 6, 7, e=2)\n",
        "g(*args)\nK(1, 2)\nK(1, q=3)\nk.m(3)\nk.m(s=1)\n",
    ]
    assert always_set_defaults(_DEFINITIONS, callers) == ["K.q", "f.b", "f.e"]


def test_unchanged_defaults_finds_only_parameters_no_call_changes():
    callers = [
        "f(0, 1, c=x)\nmod.f(0, d=3, e=-4)\nf(0, e=4.0)\n",
        "g(*args)\nK(1, None)\nk.m(3)\nk.m(s=2)\n",
    ]
    assert unchanged_defaults(_DEFINITIONS, callers) == ["K.q", "f.b", "f.d", "h.y", "m.s"]


def _library_findings(finder):
    callers = [p.read_text() for p in CALLER_SOURCES]
    return [f"{path.name}:{name}" for path in MODULES for name in finder(path.read_text(), callers)]


def test_every_defaulted_parameter_is_changed_by_some_caller():
    assert _library_findings(unchanged_defaults) == []


def test_no_defaulted_parameter_is_set_by_every_caller():
    assert _library_findings(always_set_defaults) == []


def cited_names(source: str) -> set[str]:
    """Names the comments and docstrings of ``source`` cite: each identifier
    inside double backticks and each _private name.  ||.||_F norms and file
    patterns such as <name>_metadata.json cite nothing."""
    texts = [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    texts += [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, documented)
    ]
    cited = set()
    for text in texts:
        text = re.sub(r"\|\|[^|]*\|\|_F|\S*<\w+>\S*", " ", text)
        for span in re.findall(r"``(.+?)``", text, re.S):
            cited |= set(re.findall(r"\b[A-Za-z_]\w*", span))
        cited |= set(re.findall(r"(?<![\w.])_[A-Za-z]\w*", text))
    return cited


def defined_names(source: str) -> set[str]:
    """Functions, classes, parameters, and names and attributes assigned."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_cited_names_finds_backticked_identifiers_and_private_names():
    source = (
        '"""Runs ``step(state, h)`` and writes ``<id>_metadata.json``."""\n'
        "# _GONE and ``cfg.run``, but not ||sigma^2||_F, __init__ or np._priv\n"
        "def f(a):\n"
        '    """Reads ``a`` via _helper."""\n'
        '    return "``not_a_docstring``"\n'
    )
    assert cited_names(source) == {"step", "state", "h", "_GONE", "cfg", "run", "a", "_helper"}
    assert defined_names("class K:\n    x: int\ndef f(a, *b):\n    self.c = d = 1\n") == {
        "K", "x", "f", "a", "b", "c", "d"
    }


def test_every_cited_name_is_defined():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    defined = set().union(*map(defined_names, sources.values()))
    undefined = {name: sorted(cited_names(s) - defined) for name, s in sources.items()}
    assert {name: names for name, names in undefined.items() if names} == {}


def exception_classes(sources: list[str]) -> set[str]:
    """Classes defined in ``sources`` that derive, directly or through one
    another, from a builtin exception."""
    classes = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    builtin = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found = set()
    while True:
        grown = {name for name, bases in classes.items() if bases & (builtin | found)}
        if grown == found:
            return found
        found = grown


def test_exception_classes_follows_bases_through_the_sources():
    sources = [
        "class A(ValueError):\n    pass\nclass B(A):\n    pass\n",
        "class C(B):\n    pass\nclass D:\n    pass\nclass E(D, object):\n    pass\n",
    ]
    assert exception_classes(sources) == {"A", "B", "C"}


def test_one_exception_class_per_kind_of_failure():
    # a broken precondition (CLI exit 2), a blow-up (exit 3), and an unknown
    # figure (exit 4) or preset name
    found = exception_classes([p.read_text() for p in SRC.glob("*.py")])
    assert found == {
        "ContractViolationError",
        "NumericalBlowupError",
        "PresetNotFoundError",
        "UnknownFigureError",
    }


def while_loops(source: str) -> list[int]:
    """Line numbers of the ``while`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)]


def test_while_loops_finds_statements_not_words():
    source = 'x = "while"\n# while\nwhile x:\n    for y in x:\n        while y:\n            break\n'
    assert while_loops(source) == [3, 5]


def test_no_unbounded_loop():
    # every library loop runs over a range or a collection, so no input can
    # keep one going
    found = {p.name: while_loops(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _numeric_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def scalar_range_checks(source: str) -> list[str]:
    """``function:line`` of each ``if`` that raises ContractViolationError and
    whose test compares a parameter of its function, or a ``self.`` field,
    with a numeric literal: a range check that ``_integer`` or ``_real``
    makes, with one message and one rule for NaN, bools and non-numbers."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        params = {a.arg for a in args} - {"self"}

        def scalar(node):
            if isinstance(node, ast.Attribute):
                return isinstance(node.value, ast.Name) and node.value.id == "self"
            return isinstance(node, ast.Name) and node.id in params

        for node in ast.walk(fn):
            if not isinstance(node, ast.If) or not any(
                isinstance(s, ast.Raise)
                and isinstance(s.exc, ast.Call)
                and getattr(s.exc.func, "id", None) == "ContractViolationError"
                for s in node.body
            ):
                continue
            for compare in ast.walk(node.test):
                if isinstance(compare, ast.Compare):
                    operands = [compare.left, *compare.comparators]
                    if any(map(scalar, operands)) and any(map(_numeric_literal, operands)):
                        found.add(f"{fn.name}:{node.lineno}")
    return sorted(found)


def test_scalar_range_checks_finds_parameters_and_fields_against_literals():
    source = (
        "def f(a, b, *, c):\n"
        "    n = len(b)\n"
        "    if not 0 <= a < n:\n"
        "        raise ContractViolationError('a')\n"
        "    if c > -1.5 or n < 2:\n"
        "        raise ContractViolationError('c')\n"
        "    if n < 2 or min(a, c) < 0 or b == 'x':\n"
        "        raise ContractViolationError('not a parameter against a literal')\n"
        "    if a < 0:\n"
        "        raise ValueError('another exception')\n"
        "    if a < 0:\n"
        "        return 0\n"
        "class K:\n"
        "    def check(self):\n"
        "        if self.x <= 0:\n"
        "            raise ContractViolationError('x')\n"
        "        if self.y.z < 0 or self.w < self.x:\n"
        "            raise ContractViolationError('not a field against a literal')\n"
    )
    assert scalar_range_checks(source) == ["check:15", "f:3", "f:5"]


def test_no_scalar_argument_is_range_checked_by_hand():
    # every scalar precondition goes through lattice._integer or lattice._real
    found = {p.name: scalar_range_checks(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: sites for name, sites in found.items() if sites} == {}
