"""Checks JSON documents against fsipp's packaged schemas.

The checker implements the part of JSON Schema draft-07 that
``problem.schema.json`` and ``report.schema.json`` use, with draft-07's
meaning (https://json-schema.org/draft-07):

* ``type`` (a name or a list; ``integer`` accepts integral floats and
  rejects booleans), ``const``, ``enum``, ``pattern``;
* ``required``, ``properties``, ``additionalProperties: false``;
* ``items`` (one schema, or a tuple of schemas that leaves later items
  free), ``minItems``, ``maxItems``, ``minimum``, ``exclusiveMinimum``;
* ``oneOf``, ``not`` and ``$ref`` into the root's ``#/definitions``,
  whose sibling keywords are ignored.

It fails closed: loading a schema that uses any other keyword, or one of
these in another form, raises :class:`SchemaError`, so a schema edit
cannot loosen validation unnoticed.  Findings come in the order and with
the wording of jsonschema's ``Draft7Validator.iter_errors``: top-level
findings only, so a failed ``oneOf`` is one finding at its instance.
"""

from __future__ import annotations

import json
import numbers
import re
from importlib import resources

_DRAFT7 = "http://json-schema.org/draft-07/schema#"
_REF = "#/definitions/"
_ROOT_ONLY = frozenset({"$schema", "$id", "definitions"})
_ANNOTATIONS = frozenset({"title", "description"})

_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (not isinstance(v, bool)
                          and (isinstance(v, int)
                               or isinstance(v, float) and v.is_integer())),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
_is_array, _is_number, _is_object = (_TYPES[t] for t in
                                     ("array", "number", "object"))


class SchemaError(ValueError):
    """A schema uses a keyword, or a keyword form, the checker lacks."""


def _names(types) -> list:
    return [types] if isinstance(types, str) else types


def _equal(a, b) -> bool:
    """JSON equality: booleans differ from numbers, 1 equals 1.0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


# keywords that look at the instance alone: (keyword value, instance) ->
# the finding's message, or None
_TESTS = {
    "type": lambda t, v: (
        None if any(_TYPES[n](v) for n in _names(t))
        else f"{v!r} is not of type {', '.join(map(repr, _names(t)))}"),
    "const": lambda c, v: None if _equal(v, c) else f"{c!r} was expected",
    "enum": lambda e, v: (None if any(_equal(x, v) for x in e)
                          else f"{v!r} is not one of {e!r}"),
    "pattern": lambda p, v: (f"{v!r} does not match {p!r}" if
                             isinstance(v, str) and not re.search(p, v)
                             else None),
    "minimum": lambda m, v: (f"{v!r} is less than the minimum of {m!r}"
                             if _is_number(v) and v < m else None),
    "exclusiveMinimum": lambda m, v: (
        f"{v!r} is less than or equal to the minimum of {m!r}"
        if _is_number(v) and v <= m else None),
    "minItems": lambda n, v: (
        f"{v!r} {'should be non-empty' if n == 1 else 'is too short'}"
        if _is_array(v) and len(v) < n else None),
    "maxItems": lambda n, v: (
        f"{v!r} {'is expected to be empty' if n == 0 else 'is too long'}"
        if _is_array(v) and len(v) > n else None),
}

# the value each keyword may take
_FORMS = {
    "type": lambda t: (isinstance(t, (str, list)) and len(t) > 0 and all(
        isinstance(n, str) and n in _TYPES for n in _names(t))),
    "const": lambda c: True, "enum": _is_array,
    "pattern": lambda p: isinstance(p, str),
    "minimum": _is_number, "exclusiveMinimum": _is_number,
    "minItems": lambda n: _TYPES["integer"](n) and n >= 0,
    "maxItems": lambda n: _TYPES["integer"](n) and n >= 0,
    "required": lambda r: _is_array(r) and all(isinstance(n, str) for n in r),
    "properties": _is_object, "additionalProperties": lambda a: a is False,
    "items": lambda i: _is_object(i) or _is_array(i),
    "oneOf": lambda o: _is_array(o) and len(o) > 0, "not": _is_object,
    "$ref": lambda r: isinstance(r, str) and r.startswith(_REF),
}


class Schema:
    """A loaded schema; :meth:`errors` lists a document's findings."""

    def __init__(self, schema: dict):
        if not _is_object(schema):
            raise SchemaError("#: the root schema must be an object")
        if schema.get("$schema", _DRAFT7) != _DRAFT7:
            raise SchemaError(f"#: $schema {schema['$schema']!r} is not "
                              "draft-07")
        self.schema = schema
        self.definitions = schema.get("definitions", {})
        for name, sub in self.definitions.items():
            self._load(sub, f"#/definitions/{name}")
        self._load(schema, "#", root=True)

    def errors(self, doc) -> list[tuple[tuple, str]]:
        """(path, message) per finding, path a tuple of keys and indices."""
        out: list = []
        self._visit(self.schema, doc, (), out)
        return out

    def _valid(self, schema: dict, inst) -> bool:
        out: list = []
        self._visit(schema, inst, (), out)
        return not out

    def _visit(self, schema: dict, inst, path: tuple, out: list) -> None:
        while "$ref" in schema:  # draft-07 ignores the siblings of $ref
            schema = self.definitions[schema["$ref"][len(_REF):]]
        for key, value in schema.items():
            if key in _TESTS:
                message = _TESTS[key](value, inst)
                if message is not None:
                    out.append((path, message))
            elif key == "required" and _is_object(inst):
                out.extend((path, f"{n!r} is a required property")
                           for n in value if n not in inst)
            elif key == "properties" and _is_object(inst):
                for name, sub in value.items():
                    if name in inst:
                        self._visit(sub, inst[name], path + (name,), out)
            elif key == "additionalProperties" and _is_object(inst):
                known = schema.get("properties", {})
                extra = sorted({k for k in inst if k not in known}, key=str)
                if extra:
                    out.append((path, "Additional properties are not allowed "
                                f"({', '.join(map(repr, extra))} "
                                f"{'was' if len(extra) == 1 else 'were'} "
                                "unexpected)"))
            elif key == "items" and _is_array(inst):
                tuple_items = isinstance(value, list)
                for i, item in enumerate(inst[:len(value)] if tuple_items
                                         else inst):
                    self._visit(value[i] if tuple_items else value, item,
                                path + (i,), out)
            elif key == "oneOf":
                valid = [sub for sub in value if self._valid(sub, inst)]
                if not valid:
                    out.append((path, f"{inst!r} is not valid under any of "
                                "the given schemas"))
                elif len(valid) > 1:  # later matches first, as jsonschema
                    shown = ", ".join(map(repr, valid[1:] + valid[:1]))
                    out.append((path, f"{inst!r} is valid under each of "
                                f"{shown}"))
            elif key == "not" and self._valid(value, inst):
                out.append((path, f"{inst!r} should not be valid under "
                            f"{value!r}"))

    def _load(self, schema, where: str, root: bool = False) -> None:
        """Raise unless ``schema`` uses only what :meth:`_visit` implements."""
        if not _is_object(schema):
            raise SchemaError(f"{where}: only object schemas are supported")
        for key, value in schema.items():
            at = f"{where}/{key}"
            if key in _ANNOTATIONS or (root and key in _ROOT_ONLY):
                continue
            if key not in _FORMS:
                raise SchemaError(f"{at}: unsupported keyword {key!r}")
            if not _FORMS[key](value) or (
                    key == "$ref" and value[len(_REF):] not in self.definitions):
                raise SchemaError(f"{at}: unsupported value {value!r}")
            if key == "properties":
                subs = value.items()
            elif key == "oneOf" or key == "items" and _is_array(value):
                subs = enumerate(value)
            else:
                subs = [("", value)] if key in ("items", "not") else []
            for name, sub in subs:
                self._load(sub, f"{at}/{name}")


_LOADED: dict[str, Schema] = {}


def load(name: str) -> Schema:
    """The packaged ``schemas/<name>.schema.json``, read once per process."""
    if name not in _LOADED:
        text = (resources.files("fsipp") / "schemas" /
                f"{name}.schema.json").read_text(encoding="utf-8")
        _LOADED[name] = Schema(json.loads(text))
    return _LOADED[name]
