"""Every name hsrec exports has a caller outside the tests and demos.

A name counts as used when it appears as an identifier in the package
sources (other than __init__.py and the name's own def/class line), the
scripts or the benchmark. The demos are examples of the exported names, not
callers of them, so a name only a demo shows does not count. Names
exported for another reason are kept below, each with its reason.
"""

import io
import tokenize
from pathlib import Path

import hsrec

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "__version__": "package metadata, read by installers and users",
}


def _identifiers(path):
    """Identifier tokens of a Python file, minus the names it defines."""
    names, prev = set(), None
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                prev = tok.string
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "hsrec"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    for folder in ("scripts", "hsbench"):
        files += (ROOT / folder).rglob("*.py")
    used = set().union(*(_identifiers(p) for p in files))
    unused = [name for name in hsrec.__all__
              if name not in used and name not in KEEP]
    assert not unused, f"exported but called only from tests or demos: {unused}"
