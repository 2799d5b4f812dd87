"""Every name hsrec exports has a caller outside its own module, the tests
and the demos.

A name counts as used when it appears as an identifier in another module
of the package (other than __init__.py, and not on a def/class line), the
scripts or the benchmark. A function that only its own module calls is a
private helper, not part of the surface. The demos are examples of the
exported names, not callers of them, so a name only a demo shows does not
count. Names exported for another reason are kept below, each with its
reason.
"""

import sys
import tokenize
from pathlib import Path

import hsrec

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "__version__": "package metadata, read by installers and users",
    "Trace": "the type every solver returns",
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
    modules = {p.resolve(): _identifiers(p) for p in package.glob("*.py")
               if p.name != "__init__.py"}
    outside = set()
    for folder in ("scripts", "hsbench"):
        outside = outside.union(*map(_identifiers, (ROOT / folder).rglob("*.py")))
    unused = []
    for name in hsrec.__all__:
        if name in KEEP:
            continue
        home = Path(sys.modules[getattr(hsrec, name).__module__].__file__).resolve()
        used = outside.union(*(ids for path, ids in modules.items() if path != home))
        if name not in used:
            unused.append(name)
    assert not unused, ("exported but called only from its own module, tests "
                        f"or demos: {unused}")


def test_no_two_exported_names_are_one_object():
    # an alias doubles the surface without adding to it
    names = {}
    for name in hsrec.__all__:
        names.setdefault(id(getattr(hsrec, name)), []).append(name)
    aliases = [group for group in names.values() if len(group) > 1]
    assert not aliases, f"exported under more than one name: {aliases}"
