"""Every public top-level function and class in src/qcap is reached: it is
named by program code outside its own definition (in its own module or in
another), or by bench/run.py or bench/tracing.py, which drive the program
from outside. A name counts in program code as a name, an attribute or an
imported name, never in a docstring or a comment; in the two bench files
also inside a string, since the tracer names what it wraps by strings and
the workloads' set-up code is source text."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "qcap").glob("*.py"))
DRIVERS = [ROOT / "bench" / "run.py", ROOT / "bench" / "tracing.py"]

# public API kept for the ROADMAP item that will call it
AWAITING = {
    "brute_force_c1": "item 2: verify upper-bound runs both searches under the cost cap",
    "p1_upper": "items 2 and 5: verify upper-bound and verify two-use stay under it",
    "erasure_capacity_formulas": "items 3 and 4: the erasure's P check, the superadditivity sweep",
}


def _names(node: ast.AST, in_strings: bool = False) -> set[str]:
    seen = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            seen.add(sub.attr)
        elif isinstance(sub, ast.alias):
            seen.add(sub.name.rsplit(".", 1)[-1])
        elif in_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            seen.update(re.findall(r"\w+", sub.value))
    return seen


def _reach() -> tuple[dict[str, set[str]], set[str]]:
    """The public definitions of the program as {"module.name": name}, and
    the keys of those named by a top-level statement other than their own
    definition, in the program or the drivers: a recursive call does not
    count."""
    defs, used_by = {}, []
    for path in PROGRAM:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                defs[f"{path.stem}.{name}"] = name
            used_by.append((f"{path.stem}.{name}", _names(node)))
    for path in DRIVERS:
        used_by.append((str(path), _names(ast.parse(path.read_text(encoding="utf-8")), True)))
    reached = {key for key, name in defs.items()
               if any(name in seen for owner, seen in used_by if owner != key)}
    return defs, reached


def test_every_public_definition_is_reached():
    defs, reached = _reach()
    assert [key for key, name in defs.items() if key not in reached and name not in AWAITING] == []


def test_every_awaiting_name_is_still_unreached():
    # an exception that gains a caller leaves the list
    defs, reached = _reach()
    awaiting = {key for key, name in defs.items() if name in AWAITING}
    assert len(awaiting) == len(AWAITING)
    assert awaiting & reached == set()
