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


def _reads(tree: ast.AST):
    """(name, node) for each read of an attribute: loaded by name, or named
    to getattr.  A string handed to any other call may be a dict key, as in
    the benchmark's `_pick(record, "z", ...)`, so it reads nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value, node.args[1]


def _members(tree: ast.AST) -> dict:
    """(class, name) -> the nodes that define the member: a def or an
    assignment in the class body, or a method's assignment to self.name."""
    members = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                members.setdefault((cls.name, item.name), []).append(item)
                for stmt in ast.walk(item):
                    for target in _targets(stmt):
                        if isinstance(target, ast.Attribute) and \
                                getattr(target.value, "id", None) == "self":
                            members.setdefault((cls.name, target.attr), []).append(stmt)
            for target in _targets(item):
                if isinstance(target, ast.Name):
                    members.setdefault((cls.name, target.id), []).append(item)
    return members


def _targets(stmt: ast.AST) -> list:
    """What an assignment statement assigns to; nothing for any other node."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


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

    # members that no shipped code reads, kept on purpose
    KEEP = {
        "QueryRecord.hidden": "the draws a record_hidden oracle writes, which "
                              "the reference model reads back",
        "AdviceLanguage.contains": "the ground truth that decide_membership is "
                                   "tested against",
    }

    def test_every_member_is_read(self):
        """Every method, property, field, class attribute and self. attribute
        of a package class, dunders excepted, is read by name, as `_reads`
        finds one: in the package outside its own definition, or in a root.
        A member that only tests read fails here.  A name is all the guard
        sees, so a read of another class's member of the same name hides an
        unread one, as `args.word_length` in the CLI hid a result field."""
        rooted = {name for tree in self.roots() for name, _ in _reads(tree)}
        read_at, members = {}, {}
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, node in _reads(tree):
                read_at.setdefault(name, set()).add(node)
            for member, nodes in _members(tree).items():
                members.setdefault(member, []).extend(nodes)
        unread = set()
        for (cls, name), defs in members.items():
            if name.startswith("__") and name.endswith("__") or name in rooted:
                continue
            inside = {node for d in defs for node in ast.walk(d)}
            if not read_at.get(name, set()) - inside:
                unread.add(f"{cls}.{name}")
        kept = set(self.KEEP)
        assert unread == kept, (f"unread: {', '.join(sorted(unread - kept))}; "
                                f"kept but read: {', '.join(sorted(kept - unread))}")
