"""Correctness gates: the published rank table and the report schemas.

The table is copied here, not imported from the test suite, so that the
benchmark checks the engine against the published numbers on its own.
"""

from __future__ import annotations

import json
from pathlib import Path

from jsonschema import Draft7Validator
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT7

# published table of relation-span ranks: weight -> rows 1..7
PUBLISHED_TABLE = {
    3: (1, 1, 1, 1, 1, 1, 1),
    4: (1, 1, 1, 1, 2, 2, 1),
    5: (3, 4, 4, 4, 5, 5, 4),
    6: (3, 6, 6, 6, 10, 10, 6),
    7: (6, 11, 12, 16, 22, 23, 15),
    8: (6, 15, 16, 28, 44, 46, 26),
    9: (10, 22, 25, 64, 90, 98, 56),
    10: (10, 28, 31, 120, 181, 199, 102),
    11: (15, 37, 43, 256, 363, 411, 208),
    12: (15, 45, 51, 496, 727, 830, 393),
}


def load_validators(docs: Path) -> dict[str, Draft7Validator]:
    """One validator per ``docs/*.schema.json``, keyed by file name;
    cross-file ``$ref``s resolve among them."""
    schemas = {p.name: json.loads(p.read_text())
               for p in sorted(docs.glob("*.schema.json"))}
    if not schemas:
        raise FileNotFoundError(f"no report schemas under {docs}")
    registry = Registry().with_resources(
        (name, Resource.from_contents(s, default_specification=DRAFT7))
        for name, s in schemas.items())
    return {name: Draft7Validator(s, registry=registry)
            for name, s in schemas.items()}


def schema_problems(validator: Draft7Validator, doc) -> list[str]:
    return [f"schema: /{'/'.join(map(str, e.absolute_path))}: {e.message}"
            for e in validator.iter_errors(doc)]


def table_problems(doc: dict, max_weight: int) -> list[str]:
    """Cells of a ``table --format json`` report that differ from the
    published table (every weight 3..max_weight must be present)."""
    problems = []
    rows = {row["id"]: row["values"] for row in doc.get("rows", [])}
    for wt in range(3, max_weight + 1):
        for row, want in enumerate(PUBLISHED_TABLE[wt], start=1):
            got = rows.get(row, {}).get(str(wt))
            if got != want:
                problems.append(f"table row {row} weight {wt}: "
                                f"got {got}, published {want}")
    return problems


def verdict_problems(doc: dict, validator: Draft7Validator) -> list[str]:
    """A verdict report that is schema-valid, true and residual-free."""
    problems = schema_problems(validator, doc)
    if doc.get("verdict") is not True:
        problems.append(f"{doc.get('claim')} {doc.get('params')}: "
                        f"verdict {doc.get('verdict')}")
    if doc.get("residual_terms"):
        problems.append(f"{doc.get('claim')} {doc.get('params')}: "
                        f"{len(doc['residual_terms'])} residual terms")
    return problems
