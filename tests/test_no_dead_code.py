"""Code with no caller in src/ is deleted, not kept for tests.

Every top-level function, class and assigned name in the package must be
read somewhere in src/ besides its own definition or assignment, as a name
or as an attribute, or be part of the public API in memgrep.__all__.
Importing a name, or assigning to it, does not count as reading it; dunder
names such as __all__ and __version__ are read by Python and packaging
tools, not by src/. Likewise every default of a function or a method,
exported or not, must be overridden by some call in src/: a setting
nothing in the package sets is a switch kept for tests, and each exemption
from that rule must name a defaulted parameter that no call passes. The
converse holds for code outside memgrep.__all__: a default that every src/
call passes is never used, so the parameter is required instead. Every
error type but the base class must be raised by some raise statement in
src/: an exception nothing raises is a channel kept only by being
exported. And every
field of RunConfig and of each dataclass its fields hold must be read as an
attribute somewhere in src/ outside its own class body: a run setting that
nothing reads is recorded and checked on every run, yet changes nothing.
Every attribute a class's __init__ or __post_init__ sets on its instance,
error types aside, must be read as an attribute somewhere in src/ outside
that constructor: state nothing reads is built on every construction.
"""

import ast
import inspect
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import memgrep
from memgrep.cli import RunConfig

SRC = Path(memgrep.__file__).resolve().parent


def _defines(top: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines or assigns."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {top.name}
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)
                and not (node.id.startswith("__") and node.id.endswith("__"))}
    return set()


def test_every_top_level_definition_has_a_caller_or_is_exported():
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            own = _defines(top)
            defined += [(name, f"{path.name}:{top.lineno}") for name in sorted(own)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:     # a definition reading itself is no caller
                    read.add(name)
    dead = [f"{name} ({where})" for name, where in defined
            if name not in read and name not in memgrep.__all__]
    assert not dead, f"no caller in src/ and not exported: {dead}"


UNUSED_DEFAULT_EXEMPT = {
    # The console script calls main() with no argument; tests pass argv.
    ("cli.py", "main", "argv"),
    # bench/workloads.py passes it, to label each run with its question.
    ("evaluate.py", "run_question", "question_id"),
}


def _defaulted_params(fn: ast.FunctionDef | ast.AsyncFunctionDef, bound: int):
    """(name, position or None) of each parameter with a default; position is
    None for a keyword-only parameter. A call passes neither self nor cls,
    so the first `bound` positional parameters take no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    params += [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None]
    return params


def _functions(tree: ast.Module):
    """(function, bound, top) for each top-level function and each method
    of a top-level class; bound is 1 for a method called on an instance or
    a class, and top is the top-level name it lives under, its own or its
    class's. Dunder methods are left out: Python calls them, not a call by
    their name."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top, 0, top.name
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("__")):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    yield fn, 0 if static else 1, top.name


def _defaults_and_calls():
    """Every defaulted parameter in src/ as (file name, function, top-level
    name, parameter, position), each with the calls in src/ made by the
    function's name."""
    functions = []
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions += [(path.name, fn, bound, top) for fn, bound, top in _functions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return [((filename, fn, top, param, position), calls.get(fn.name, []))
            for filename, fn, bound, top in functions
            for param, position in _defaulted_params(fn, bound)]


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether the call passes the parameter: by keyword, possibly through
    **kwargs, or by position, possibly through *args."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed_defaults() -> dict[tuple[str, str, str], str]:
    """Every defaulted parameter that no call in src/ passes, keyed
    (file name, function name, parameter) and shown as fn(param=) (file:line)."""
    return {(filename, fn.name, param): f"{fn.name}({param}=) ({filename}:{fn.lineno})"
            for (filename, fn, _, param, position), calls in _defaults_and_calls()
            if not any(_passes(call, param, position) for call in calls)}


def test_every_default_of_an_internal_function_is_passed_somewhere():
    unpassed = [shown for key, shown in _unpassed_defaults().items()
                if key not in UNUSED_DEFAULT_EXEMPT]
    assert not unpassed, f"defaults no call in src/ passes: {unpassed}"


def test_no_internal_default_is_passed_by_every_call():
    # Outside the public API every caller is in src/, so a default that each
    # of them overrides is never used: the parameter should be required.
    always = [f"{fn.name}({param}=) ({filename}:{fn.lineno})"
              for (filename, fn, top, param, position), calls in _defaults_and_calls()
              if top not in memgrep.__all__ and calls
              and all(_passes(call, param, position) for call in calls)]
    assert not always, f"defaults every call in src/ passes: {always}"


def test_every_default_exemption_names_a_default_no_call_passes():
    # An entry for a parameter that is gone, has no default, or that some
    # call now passes exempts nothing and would hide the next such default.
    stale = sorted(UNUSED_DEFAULT_EXEMPT - _unpassed_defaults().keys())
    assert not stale, f"exemptions that name no unpassed default: {stale}"


def test_every_error_type_is_raised_somewhere():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    errors = {"MemgrepError"}
    for top in tree.body:   # a subclass is defined after its base
        if isinstance(top, ast.ClassDef) and any(
                getattr(base, "id", None) in errors for base in top.bases):
            errors.add(top.name)
    raised: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert len(errors) > 1
    never = sorted(errors - raised - {"MemgrepError"})
    assert not never, f"error types no raise in src/ raises: {never}"


def _run_config_classes() -> list[type]:
    """RunConfig and each dataclass its fields hold: its sections and the
    scorer list's items."""
    classes = [RunConfig]
    for hint in get_type_hints(RunConfig).values():
        inner = get_args(hint)[0] if get_origin(hint) is list else hint
        if is_dataclass(inner):
            classes.append(inner)
    return classes


def test_every_run_setting_is_read_outside_its_own_class():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    classes = _run_config_classes()
    assert len(classes) > 1
    unread = []
    for cls in classes:
        home = Path(inspect.getsourcefile(cls)).name
        read = {node.attr for name, tree in trees.items() for top in tree.body
                if not (name == home and isinstance(top, ast.ClassDef)
                        and top.name == cls.__name__)
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread += [f"{cls.__name__}.{f.name} ({home})" for f in fields(cls)
                   if f.name not in read]
    assert not unread, f"run settings nothing in src/ reads: {unread}"


_CONSTRUCTORS = ("__init__", "__post_init__")


def _self_attributes_set(fn: ast.FunctionDef) -> set[str]:
    """The attributes a constructor sets on its own instance: by assignment
    to self.name, or by object.__setattr__(self, "name", ...) on a frozen
    dataclass."""
    me = fn.args.args[0].arg
    names = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == me):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__setattr__"
              and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
              and node.args[0].id == me and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_every_attribute_a_constructor_sets_is_read_elsewhere():
    # Error types are exempt: their attributes are for the code that catches them.
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"]
    constructors = [(cls.name, fn) for tree in trees for cls in tree.body
                    if isinstance(cls, ast.ClassDef)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and fn.name in _CONSTRUCTORS]
    assert constructors
    unread = []
    for cls_name, ctor in constructors:
        inside = {id(node) for node in ast.walk(ctor)}
        read = {node.attr for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside}
        unread += [f"{cls_name}.{name} (set in {ctor.name})"
                   for name in sorted(_self_attributes_set(ctor) - read)]
    assert not unread, f"attributes nothing in src/ reads: {unread}"
