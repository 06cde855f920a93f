"""Source hygiene: no public name or default in src/triagerl that only tests
use, no error class that nothing catches, and no file read but by the one
input reader."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from triagerl import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "triagerl").glob("*.py"))
CALLERS = [*SOURCES, *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
MODULES = {f"triagerl.{path.stem}" for path in SOURCES}
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def defined_names(tree):
    """Each public top-level function, class and constant, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield name.id, node


def imported(tree):
    """Each local name an import in `tree` binds to a triagerl module or to a
    name in one: local -> (module, None) or (module, name)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "triagerl" if node.level else ""  # relative imports sit in the package
            module = ".".join(part for part in (base, node.module) if part)
            for alias in node.names:
                full = f"{module}.{alias.name}"
                bound[alias.asname or alias.name] = (
                    (full, None) if full in MODULES else (module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES and alias.asname:
                    bound[alias.asname] = (alias.name, None)
    return bound


def references(tree, module):
    """((module, name), line) of each use of a triagerl name in `tree`, the
    code of `module`: a bare name of `module` itself or one imported from
    another module, or an attribute read off an imported module."""
    bound = imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in bound and bound[node.id][1] is not None:
                yield bound[node.id], node.lineno
            else:
                yield (module, node.id), node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and bound.get(node.value.id, (None, ""))[1] is None):
            yield (bound[node.value.id][0], node.attr), node.lineno


def test_every_public_name_in_src_has_a_caller_outside_tests():
    refs = []
    for path in CALLERS:
        module = f"triagerl.{path.stem}" if path in SOURCES else str(path)
        refs += [(path, ref, line)
                 for ref, line in references(ast.parse(path.read_text(encoding="utf-8")), module)]
    unused = []
    for path in SOURCES:
        module = f"triagerl.{path.stem}"
        for name, node in defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == (module, name) and not (other == path and line in own)
                       for other, ref, line in refs):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "referenced only by tests or nowhere: " + ", ".join(unused)


def folded(value):
    """A constant as an enum restatement compares it: strings case-insensitively."""
    return value.lower() if isinstance(value, str) else value


def enums_defined(tree):
    """Each Enum class of `tree`: name -> (member names, folded member values)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id.endswith("Enum") for base in node.bases):
            assigns = [stmt for stmt in node.body if isinstance(stmt, ast.Assign)]
            yield node.name, (
                {target.id for stmt in assigns for target in stmt.targets
                 if isinstance(target, ast.Name)},
                {folded(stmt.value.value) for stmt in assigns
                 if isinstance(stmt.value, ast.Constant)})


def enum_restatements(sources):
    """`file:line Enum` of each tuple, list or set literal in `sources` that
    holds every value (case-insensitively) or every member of an Enum
    defined there."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    enums = {name: facts for tree in trees.values() for name, facts in enums_defined(tree)}
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                continue
            values = {folded(e.value) for e in node.elts if isinstance(e, ast.Constant)}
            members = {(e.value.id, e.attr) for e in node.elts
                       if isinstance(e, ast.Attribute) and isinstance(e.value, ast.Name)}
            for name, (names, enum_values) in enums.items():
                if (enum_values and enum_values <= values
                        or {(name, member) for member in names} <= members):
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_literal_restates_an_enum():
    # Read an enum's members and values from the enum itself.
    found = enum_restatements(SOURCES)
    assert not found, "literals that restate an enum: " + ", ".join(found)


def caught_names(tree):
    """Each class name an `except` clause in `tree` names, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for part in ast.walk(node.type):
                if isinstance(part, ast.Name):
                    yield part.id
                elif isinstance(part, ast.Attribute):
                    yield part.attr


def test_every_error_class_has_a_handler():
    # A class no code catches by type adds nothing over raising InputError.
    errors = ast.parse((ROOT / "src" / "triagerl" / "errors.py").read_text(encoding="utf-8"))
    caught = {name for path in SOURCES
              for name in caught_names(ast.parse(path.read_text(encoding="utf-8")))}
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    caught |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
               and node.module == "triagerl.errors" for alias in node.names}
    unhandled = [node.name for node in errors.body
                 if isinstance(node, ast.ClassDef) and node.name not in caught]
    assert not unhandled, "error classes nothing catches: " + ", ".join(unhandled)


def load_bench_pairs():
    """scripts/bench_pairs.py, whose `settable` is the one definition of a settable value."""
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def omitted_defaults(signatures, callers):
    """`name.parameter` of each defaulted parameter in `signatures` (as
    `bench_pairs.signatures` gives them) that some call in `callers` may
    leave out. Calls are matched by the name they call. A call passes the
    positions before its first `*args` and the keywords it names; whatever
    `*args` or `**kwargs` would fill counts as left out, since it may be."""
    by_name = {}
    for _, name, params in signatures:
        by_name.setdefault(name, []).append(params)
    omitted = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            plain = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            for params in by_name.get(name, ()):
                positional = [p for p, _, _, is_positional in params if is_positional]
                passed = {*positional[:plain], *(k.arg for k in node.keywords)}
                omitted |= {f"{name}.{p}" for p, _, defaulted, _ in params
                            if defaulted and p not in passed}
    return omitted


def test_every_default_is_left_out_by_a_caller_outside_tests():
    # A default that every caller outside tests overrides only saves tests some typing.
    # The fields of the config sections are the README's documented config defaults.
    bench_pairs = load_bench_pairs()
    exempt = {cls.__name__ for cls in (cli.RunConfig, *cli._SECTIONS.values())}
    omitted = omitted_defaults(bench_pairs.signatures(ROOT), [*CALLERS, ACCEPTANCE])
    unused = [f"{path.name}:{line} {name}" for path, line, name in bench_pairs.settable(ROOT)
              if name.split(".")[0] not in exempt and name not in omitted]
    assert not unused, "defaults no caller outside tests leaves out: " + ", ".join(unused)


def test_only_read_input_reads_files():
    # Each input file enters through `warnings.read_input`, whose checks then hold for all.
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef)
                  and path.name == "warnings.py" and top.name == "read_input"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in reader:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("read_text", "read_bytes", "open"):
                    reads.append(f"{path.name}:{node.lineno} {name}")
    assert not reads, "files read outside warnings.read_input: " + ", ".join(reads)


def test_every_intervals_key_names_a_number_field_of_its_class():
    # `check_fields` reads `intervals.get(field)`, so a key that names no int or
    # float field of its class would drop its range without a word.
    stray = []
    for path in SOURCES:
        module = importlib.import_module(f"triagerl.{path.stem}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and "INTERVALS" in vars(cls):
                numbers = {f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")}
                stray += [f"{path.name} {name}.{key}" for key in cls.INTERVALS
                          if key not in numbers]
    assert not stray, "INTERVALS keys that name no int or float field: " + ", ".join(stray)
