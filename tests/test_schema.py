"""The report validator against jsonschema's Draft7Validator as the oracle.

The two must accept every catalog document, and on seeded mutations the
package's validator may never accept what jsonschema rejects.  They differ
only on integral floats such as 2.0 in `integer` fields: jsonschema accepts
them, the package rejects them, since the wire formats carry no floats.
"""

import hashlib
import json
import random

import jsonschema
import pytest

from reflext.catalog import entry, list_entries
from reflext.errors import InternalError, SchemaViolation
from reflext.reports import ANALYZE_SCHEMA, THEOREM_SCHEMA, analyze_document, theorem_document
from reflext.schema import validate
from reflext.theoremlab import check_hypotheses, verify_theorem

# sha256 of json.dumps(schema): any change to a schema, its key order included,
# changes the digest.
SCHEMA_DIGESTS = {
    "theorem": "91f22679d5012e35b17f2e6d34df893a99c40d31531c5a9e8eb6393fcbf295cf",
    "analyze": "d07d8afa9b303aabc2fe701e6b904f797dfd7f899c910f5f4347b8a9f0a28e33",
}

POOL = [None, True, False, 0, -1, 2, 2.0, 0.5, "", "x", "3", "1/2", "2+1*sqrt(5)", "1.5",
        "Q", "Simple", [], {}, [1, 2], {"quadratic": 5}]
KEYS = ["extra", "note", "method", "witness", "claim5_trace", "reason"]


@pytest.fixture(scope="module")
def documents():
    """(document, schema) for every catalog entry: theorem, theorem with trace, analyze."""
    docs = []
    for name in list_entries():
        rep = entry(name).representation
        docs.append((theorem_document(verify_theorem(rep), rep, name), THEOREM_SCHEMA))
        docs.append((theorem_document(verify_theorem(rep, trace=True), rep, name), THEOREM_SCHEMA))
        docs.append((analyze_document(rep, check_hypotheses(rep), name), ANALYZE_SCHEMA))
    return docs


def _accepts(doc, schema) -> bool:
    try:
        validate(doc, schema)
    except SchemaViolation:
        return False
    return True


def _containers(node):
    """Every dict and list in the document, the document included."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _mutate(rng, container):
    """Change the container in place; return the key of a value put in, or None."""
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    kind = rng.choice(["replace", "delete", "add", "append"])
    if kind == "replace" and keys:
        key = rng.choice(keys)
        container[key] = rng.choice(POOL)
        return key
    if kind == "delete" and isinstance(container, dict) and keys:
        del container[rng.choice(keys)]
        return None
    if kind == "add" and isinstance(container, dict):
        key = rng.choice(KEYS)
        container[key] = rng.choice(POOL)
        return key
    if isinstance(container, list):
        # an existing item again keeps most appends valid
        container.append(rng.choice(container + POOL))
        return len(container) - 1
    return None


def test_both_validators_accept_every_catalog_document(documents):
    assert len(documents) == 72
    for doc, schema in documents:
        validate(doc, schema)
        assert jsonschema.Draft7Validator(schema).is_valid(doc)


def test_mutations_are_never_accepted_when_jsonschema_rejects(documents):
    rng = random.Random(20261018)
    oracles = {id(s): jsonschema.Draft7Validator(s) for s in (THEOREM_SCHEMA, ANALYZE_SCHEMA)}
    containers = [list(_containers(doc)) for doc, _ in documents]
    counts = {"accepted": 0, "rejected": 0, "integral float": 0}
    for _ in range(5000):
        i = rng.randrange(len(documents))
        doc, schema = documents[i]
        container = rng.choice(containers[i])
        saved = container.copy()
        key = _mutate(rng, container)
        ours, theirs = _accepts(doc, schema), oracles[id(schema)].is_valid(doc)
        assert theirs or not ours, doc
        if theirs and not ours:
            # the one permitted disagreement: an integral float in an integer field
            value = container[key]
            assert isinstance(value, float) and value.is_integer(), (key, value)
            container[key] = int(value)
            assert _accepts(doc, schema)
            counts["integral float"] += 1
        else:
            counts["accepted" if ours else "rejected"] += 1
        container.clear()
        if isinstance(container, dict):
            container.update(saved)
        else:
            container.extend(saved)
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"type": "array", "uniqueItems": True}, [1]),
        ({"type": "number"}, 1),
        ({"type": "object", "additionalProperties": {"type": "integer"}}, {"a": 1}),
        ({"items": [{"type": "integer"}]}, [1]),
        ({"oneOf": [{"const": 1}, {"format": "email"}]}, 1),
    ],
    ids=["uniqueItems", "number", "additionalProperties-schema", "items-list", "format"],
)
def test_unsupported_keyword_is_an_internal_error(schema, value):
    with pytest.raises(InternalError) as info:
        validate(value, schema)
    assert not isinstance(info.value, SchemaViolation)


def test_boolean_and_float_are_not_integers():
    for value in [True, 2.0]:
        with pytest.raises(SchemaViolation):
            validate(value, {"type": "integer"})
    assert jsonschema.Draft7Validator({"type": "integer"}).is_valid(2.0)
    validate(2, {"type": "integer", "minimum": 2})


@pytest.mark.parametrize("name,schema", [("theorem", THEOREM_SCHEMA), ("analyze", ANALYZE_SCHEMA)])
def test_schemas_match_their_pinned_digests(name, schema):
    assert hashlib.sha256(json.dumps(schema).encode()).hexdigest() == SCHEMA_DIGESTS[name]
