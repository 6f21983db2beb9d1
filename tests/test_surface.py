import ast
import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collidersim"


def _named(tree: ast.AST) -> set:
    """Every identifier the code names: a bare name, an attribute, an
    imported name, or a string handed to a call, as `getattr` and the
    benchmark's tracer take one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Call):
            names.update(arg.value for arg in node.args
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                         and arg.value.isidentifier())
    return names


class _Calls(ast.NodeVisitor):
    """What every call passes, by the name it calls: (the number of
    positional arguments, the keyword names).  cls(...) calls the enclosing
    class and super().__init__(...) its bases; *args or **kw pass everything."""

    def __init__(self):
        self.classes = []
        self.passed = {}

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        func, names = node.func, []
        if isinstance(func, ast.Name):
            names = [self.classes[-1].name if func.id == "cls" and self.classes else func.id]
        elif not isinstance(func, ast.Attribute):
            pass    # a call of a call's result or of an item: no def by name
        elif (func.attr == "__init__" and isinstance(func.value, ast.Call)
              and getattr(func.value.func, "id", None) == "super"):
            names = [base.id for base in self.classes[-1].bases if isinstance(base, ast.Name)]
        else:
            names = [func.attr]
        star = (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords))
        passed = (float("inf") if star else len(node.args),
                  {kw.arg for kw in node.keywords})
        for name in names:
            self.passed.setdefault(name, []).append(passed)
        self.generic_visit(node)


class TestPublicSurface:
    """Every name the package exports is reached from a command, the
    benchmark, an acceptance criterion or a README example; a name that
    only its own unit tests call fails here."""

    def roots(self) -> list:
        trees = [ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")),
                 ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))]
        trees += [ast.parse(path.read_text(encoding="utf-8"))
                  for path in sorted((ROOT / "perfbench").rglob("*.py"))]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        trees += [ast.parse(example.source)
                  for example in doctest.DocTestParser().get_examples(readme)]
        return trees

    def definitions(self) -> dict:
        """Top-level definitions of the package's modules, by name."""
        defs = {}
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.setdefault(node.name, []).append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                defs.setdefault(name.id, []).append(node)
        return defs

    def reached(self) -> set:
        defs = self.definitions()
        reached = set().union(*map(_named, self.roots()))
        todo = list(reached & set(defs))
        while todo:
            for node in defs[todo.pop()]:
                new = _named(node) - reached
                reached |= new
                todo += new & set(defs)
        return reached

    def test_every_export_is_reached(self):
        tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        unreached = sorted(exported - self.reached())
        assert unreached == [], f"exported, never reached: {', '.join(unreached)}"

    def test_every_default_is_passed(self):
        """A defaulted parameter of a package def that no call in the package
        or the roots passes has one value in use: it should be a constant.
        A method's own self or cls is not counted; a class's __init__ is
        called by the class's name."""
        sources = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
                   for path in sorted(PACKAGE.glob("*.py"))}
        calls = _Calls()
        for tree in [*sources.values(), *self.roots()]:
            calls.visit(tree)
        unpassed = []
        for module, tree in sources.items():
            owner = {item: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                     for item in node.body}
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                cls = owner.get(node)
                name = cls.name if cls and node.name == "__init__" else node.name
                bound = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                made = calls.passed.get(name, [])
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first - bound):
                    if not any(n > i or arg.arg in kws for n, kws in made):
                        unpassed.append(f"{module}.{name}({arg.arg}=)")
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None and not any(
                            n == float("inf") or arg.arg in kws for n, kws in made):
                        unpassed.append(f"{module}.{name}({arg.arg}=)")
        assert unpassed == [], f"defaults no call passes: {', '.join(unpassed)}"
