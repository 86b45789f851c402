"""Every `oar_ocr_ray` module and top-level name is reached from an entry
point.

The entry points are bench.py, __ray_entry__.py, tools/*.py and
perfbench's non-test modules. The module walk follows `import` and `from`
statements (function-local ones too). The name walk follows what each
reached definition refers to. Unreached code is either deleted or named
below with its reason, so new dead code shows up here instead of living on
through its own tests alone."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("oar_ocr_ray", "perfbench")

# modules queued for deletion: reached only by their own tests
UNREACHED = set()

# Top-level names no entry point reaches, kept on purpose.
# Reference code that a test checks reached code against:
TEST_ORACLES = {
    # test_db_boundary: db_boxes_from_bitmap's closed-form unclip
    "oar_ocr_ray.geometry.unclip_box",
    "oar_ocr_ray.geometry.min_area_rect",
    "oar_ocr_ray.geometry.convex_hull",
    # test_fixtures: the corpus generator's line orientation
    "oar_ocr_ray.stubs.classify_line_orientation",
    "oar_ocr_ray.stubs.correct_line_orientation",
}


def module_path(name: str) -> str | None:
    """The repo file of module `name`, or None outside the repo's packages."""
    if name.split(".")[0] not in PACKAGES:
        return None
    base = os.path.join(ROOT, *name.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def imported_modules(path: str, name: str) -> set[str]:
    """Module names one file imports; `name` is its dotted module name."""
    is_pkg = os.path.basename(path) == "__init__.py"
    package = name if is_pkg else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(open(path).read(), path)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            found.add(base)
            # `from pkg import name` imports pkg.name when it is a module
            found.update(f"{base}.{a.name}" for a in node.names
                         if module_path(f"{base}.{a.name}"))
    # importing a.b.c runs a/__init__ and a/b/__init__ first
    return {".".join(m.split(".")[:i + 1]) for m in found
            for i in range(m.count(".") + 1)}


def entry_points() -> list[str]:
    entries = [os.path.join(ROOT, "bench.py"), os.path.join(ROOT, "__ray_entry__.py")]
    entries += sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    entries += sorted(p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                      if not os.path.basename(p).startswith("test_"))
    return entries


def reached_modules() -> set[str]:
    todo = []
    for path in entry_points():
        rel = os.path.relpath(path, ROOT)[:-3].replace(os.sep, ".")
        todo.extend(imported_modules(path, rel))
    seen = set()
    while todo:
        name = todo.pop()
        path = module_path(name)
        if name in seen or path is None:
            continue
        seen.add(name)
        todo.extend(imported_modules(path, name))
    return seen


def all_modules() -> set[str]:
    out = set()
    for path in glob.glob(os.path.join(ROOT, "oar_ocr_ray", "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, ROOT)[:-3].split(os.sep)
        if rel[-1] == "__init__":
            rel = rel[:-1]
        out.add(".".join(rel))
    return out


def test_only_the_queued_modules_are_unreached():
    assert all_modules() - reached_modules() == UNREACHED


def identifiers(node: ast.AST) -> set[str]:
    """Every name `node` may refer to: names, attributes, imported names
    and strings that are identifiers (perfbench looks some engine names up
    by string, e.g. "StubDbSession" and "pack_partial")."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def defined_names(stmt: ast.stmt) -> list[str]:
    """The top-level names a module statement defines: a function, a class
    or a constant bound by a plain assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return [] if names == ["__all__"] else names


def unreached_names() -> set[str]:
    """The `oar_ocr_ray` top-level names that only other unreached names
    refer to. Names resolve by identifier alone, so a name shared by two
    modules is reached when either is: the walk errs toward calling code
    reached. Entry points and module-level code outside definitions are
    the roots; module-level imports are not, as an import alone runs
    nothing."""
    refs = {}       # "module.name" -> identifiers in its definition
    roots = set()   # identifiers that run on import or from an entry point
    aliases = {}    # `import x as y`: reaching y reaches x
    for path in entry_points() + sorted(module_path(m) for m in all_modules()):
        module = os.path.relpath(path, ROOT)[:-3].replace(os.sep, ".").removesuffix(".__init__")
        tree = ast.parse(open(path).read(), path)
        for n in ast.walk(tree):
            if isinstance(n, ast.alias) and n.asname:
                aliases.setdefault(n.asname, set()).add(n.name.rpartition(".")[2])
        in_package = module.startswith("oar_ocr_ray")
        for stmt in tree.body:
            names = defined_names(stmt) if in_package else []
            for name in names:
                node = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else stmt
                refs[f"{module}.{name}"] = identifiers(node) if node else set()
            if not names and not (in_package and isinstance(stmt, (ast.Import, ast.ImportFrom))):
                roots |= identifiers(stmt)
    by_ident = {}
    for key in refs:
        by_ident.setdefault(key.rpartition(".")[2], []).append(key)
    reached, seen, todo = set(), set(), list(roots)
    while todo:
        ident = todo.pop()
        if ident in seen:
            continue
        seen.add(ident)
        todo.extend(aliases.get(ident, ()))
        for key in by_ident.get(ident, ()):
            reached.add(key)
            todo.extend(refs[key])
    return set(refs) - reached


def test_only_the_allowlisted_names_are_unreached():
    """A stale allowlist entry fails too: each one must still be
    unreached."""
    assert unreached_names() == TEST_ORACLES


def test_perfbench_patches_resolve(tmp_path):
    """perfbench's traced run wraps engine names by attribute: the stage
    classes and layer functions in the workers, and the extract build's
    UDFs and shard steps in the process that builds the plan. Installing
    and undoing both sets here, with no Ray run, fails as soon as one of
    those names is renamed or deleted."""
    from oar_ocr_ray.pipelines import extract
    from oar_ocr_ray.stages import media
    from perfbench import tracer

    before = (extract.make_explode_spans, extract.strip_text_spans,
              media.MediaDetect.__call__)
    rec = tracer.Recorder(str(tmp_path))
    for patch in (tracer.patch_driver, tracer.patch_worker):
        patch(rec).undo()
    assert (extract.make_explode_spans, extract.strip_text_spans,
            media.MediaDetect.__call__) == before


def unused_local_imports() -> list[str]:
    """Function-local imports in `oar_ocr_ray` whose bound name the
    function (nested functions included) never loads, as "path:line
    function name". An import inside `try: ... except ImportError` is an
    availability probe and is skipped."""
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "oar_ocr_ray", "**", "*.py"), recursive=True)):
        tree = ast.parse(open(path).read(), path)
        probes = set()
        for t in ast.walk(tree):
            if isinstance(t, ast.Try) and any(
                    h.type is not None and "ImportError" in ast.unparse(h.type)
                    for h in t.handlers):
                probes |= {id(n) for s in t.body for n in ast.walk(s)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            todo = list(fn.body)  # this function's own statements, not nested defs
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in probes:
                    for a in node.names:
                        bound = a.asname or a.name.partition(".")[0]
                        if bound not in loads:
                            rel = os.path.relpath(path, ROOT)
                            found.append(f"{rel}:{node.lineno} {fn.name} {bound}")
                todo.extend(ast.iter_child_nodes(node))
    return found


def test_no_unused_local_imports():
    assert unused_local_imports() == []
