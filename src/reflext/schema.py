"""Draft-07 JSON Schema validation, limited to the keywords the report schemas use.

Supported: ``type`` (a name or a list of names; ``bool`` is not an
``integer``, and neither is a float, since the wire formats carry no floats),
``properties``, ``required``, ``additionalProperties: false``, ``items`` (one
schema for every item), ``enum``, ``const``, ``oneOf``, ``pattern`` (by
``re.search``), ``minimum``, ``minItems``, ``maxItems``; ``$schema`` is
ignored.  Any other keyword raises ``InternalError`` where the validator meets
it, so a schema edit cannot pass unchecked.  A document that breaks its schema
raises ``SchemaViolation`` with the path of keys and indices to the fault.
"""

from __future__ import annotations

import re

from .errors import InternalError, SchemaViolation

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _is_type(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name not in _TYPES:
        raise InternalError(f"unsupported schema type {name!r}")
    return isinstance(value, _TYPES[name])


def _same(a, b) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _descend(value, schema: dict, step) -> None:
    try:
        validate(value, schema)
    except SchemaViolation as exc:
        exc.path.insert(0, step)
        raise


def validate(value, schema: dict) -> None:
    """Raise ``SchemaViolation`` at the first place ``value`` breaks ``schema``."""
    for keyword, rule in schema.items():
        if keyword == "type":
            for name in (rule,) if isinstance(rule, str) else rule:
                if _is_type(value, name):
                    break
            else:
                raise SchemaViolation(f"{type(value).__name__} is not of type {rule!r}")
        elif keyword == "pattern":
            if isinstance(value, str) and not re.search(rule, value):
                raise SchemaViolation(f"{value!r} does not match {rule!r}")
        elif keyword == "items":
            if not isinstance(rule, dict):
                raise InternalError("only a single items schema is supported")
            if isinstance(value, list):
                for i, item in enumerate(value):
                    _descend(item, rule, i)
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, sub in rule.items():
                    if key in value:
                        _descend(value[key], sub, key)
        elif keyword == "required":
            if isinstance(value, dict):
                for key in rule:
                    if key not in value:
                        raise SchemaViolation(f"{key!r} is a required property")
        elif keyword == "additionalProperties":
            if rule is not False:
                raise InternalError("only additionalProperties: false is supported")
            if isinstance(value, dict):
                allowed = schema.get("properties", {})
                extra = [key for key in value if key not in allowed]
                if extra:
                    raise SchemaViolation(f"additional properties {extra!r} are not allowed")
        elif keyword == "oneOf":
            failures = []
            for branch in rule:
                try:
                    validate(value, branch)
                except SchemaViolation as exc:
                    failures.append(exc)
            if len(failures) == len(rule):
                # the deepest failure names the branch the value was meant for
                raise max(failures, key=lambda exc: len(exc.path))
            if len(failures) < len(rule) - 1:
                raise SchemaViolation(f"{value!r} is valid under more than one oneOf branch")
        elif keyword == "const":
            if not _same(value, rule):
                raise SchemaViolation(f"{value!r} is not {rule!r}")
        elif keyword == "enum":
            if not any(_same(value, option) for option in rule):
                raise SchemaViolation(f"{value!r} is not one of {rule!r}")
        elif keyword == "minimum":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if value < rule:
                    raise SchemaViolation(f"{value!r} is less than the minimum {rule!r}")
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < rule:
                raise SchemaViolation(f"{value!r} has fewer than {rule} items")
        elif keyword == "maxItems":
            if isinstance(value, list) and len(value) > rule:
                raise SchemaViolation(f"{value!r} has more than {rule} items")
        elif keyword != "$schema":
            raise InternalError(f"unsupported schema keyword {keyword!r}")
