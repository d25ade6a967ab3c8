"""Every module reference spelled in backticks in the README and the package sources, such as
`core.qr_factor` or `sketchls.estimators.ESTIMATORS`, names an attribute that exists."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchls"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))
REFERENCE = re.compile(r"`(?:sketchls\.)?(%s)\.([A-Za-z_][\w.]*)" % "|".join(MODULES))


def _references():
    """(file, line, module, dotted name) for every backticked module reference."""
    for path in (ROOT / "README.md", *sorted(PACKAGE.glob("*.py"))):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in REFERENCE.finditer(line):
                yield path.relative_to(ROOT), number, match[1], match[2].rstrip(".")


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(f"sketchls.{module}")
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_backticked_module_references_name_existing_attributes():
    references = list(_references())
    assert len(references) >= 30  # the pattern still finds the references it was written for
    stale = [f"{path}:{number}: `{module}.{dotted}`"
             for path, number, module, dotted in references if not _resolves(module, dotted)]
    assert stale == []
