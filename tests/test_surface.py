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
