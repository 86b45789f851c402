"""Every `oar_ocr_ray` module is reached from an entry point.

The walk follows `import` and `from` statements (function-local ones too)
from the repo's entry points: bench.py, __ray_entry__.py, tools/*.py and
perfbench's non-test modules. A module nothing reaches is either deleted or
named below, so new unreached code shows up here instead of living on
through its own tests alone."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("oar_ocr_ray", "perfbench")

# queued for deletion: reached only by its own tests
UNREACHED = {"oar_ocr_ray.jpeg_codec"}


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


def reached_modules() -> set[str]:
    entries = [os.path.join(ROOT, "bench.py"), os.path.join(ROOT, "__ray_entry__.py")]
    entries += sorted(glob.glob(os.path.join(ROOT, "tools", "*.py")))
    entries += sorted(p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                      if not os.path.basename(p).startswith("test_"))
    todo = []
    for path in entries:
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
