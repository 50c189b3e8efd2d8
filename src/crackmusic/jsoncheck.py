"""The one checker of the JSON documents a run reads: the run config and the MSR
sidecar, each against its file in schemas/.  A message names the key and prints
every value from outside through quote, so its one line does not grow with the
value.  jsonschema itself is never imported."""

import json
import numbers
import operator
import reprlib
import sys
from pathlib import Path

quote = reprlib.repr   # how a message prints a value that came from outside


class SchemaError(ValueError):
    """args: the message, the key path it names, the keyword and its schema value."""
    def __str__(self):
        return self.args[0]


def check(doc, name, what):
    """Return schemas/<name>.schema.json, beside this module, if the JSON value doc
    matches it.  Else raise a ValueError that calls doc what: first for a number no
    finite float holds, so no later message prints one, then a SchemaError."""
    schema = json.loads((Path(__file__).parent / "schemas" / f"{name}.schema.json").read_text())
    for path, v in _non_finite(doc):
        problem = "is an integer too large for a float" if isinstance(v, int) else \
            f"must be finite, not {v}"
        raise ValueError(f"{what} value at {_where(path)} {problem}")
    if error := _schema_error(schema, doc, quote):
        path, keyword, value, message = error
        raise SchemaError(f"{what} does not match schema at {_where(path)}: {message}",
                          _where(path), keyword, value)
    return schema


def _where(path):
    """A key path as a message names it: keys joined by /, each cut as quote cuts a string."""
    return "/".join(quote(k)[1:-1] if isinstance(k, str) else str(k) for k in path) or "top level"


def _non_finite(node, path=()):
    """Yield (path, value) for each number in a JSON document that no finite
    float holds: a NaN, an infinity or an integer too large for a float."""
    if isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:   # NaN fails too
        yield path, node
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _non_finite(child, (*path, key))


_TYPES = {"object": dict, "array": list, "number": numbers.Number, "integer": int}
_BOUNDS = {   # keyword -> (a number breaks it when, the message's words)
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_SCHEMA_KEYWORDS = {"type", "properties", "required", "additionalProperties", "const", "enum",
                    *_BOUNDS, "items", "minItems", "maxItems", "if", "allOf", "not"}


def _schema_error(schema, doc, quote=repr):
    """(path, keyword, keyword value, message) of the error that jsonschema's
    best_match picks among doc's errors against schema, or None if doc matches:
    the shallowest, then the greatest path, then one whose schema names a type
    the value lacks (or none), then the first.  The message prints doc's values
    through quote; with repr it is jsonschema's message."""
    error = max(_schema_errors(schema, doc, quote),
                key=lambda e: (-len(e[0]), e[0], not e[4]), default=None)
    return error and error[:4]


def _schema_errors(schema, x, quote, path=()):
    """Yield (path, keyword, keyword value, message, typed) for each way the JSON
    value x breaks schema, in the order and words of jsonschema's Draft 2020-12
    validator; typed tells whether schema names a type that x has.  It reads
    only _SCHEMA_KEYWORDS, and additionalProperties only as false."""
    if schema is True:
        return
    typed = "type" in schema and _is_type(x, schema["type"])
    obj, arr, num = isinstance(x, dict), isinstance(x, list), _is_type(x, "number")
    for key, v in schema.items():
        subs, messages = (), ()   # (schema, value, path) to descend into; this key's errors
        if key == "if":
            then = not any(_schema_errors(v, x, quote))
            subs = [(schema.get("then" if then else "else", True), x, path)]
        elif key == "allOf":
            subs = [(s, x, path) for s in v]
        elif key == "properties" and obj:
            subs = [(s, x[k], (*path, k)) for k, s in v.items() if k in x]
        elif key == "items" and arr:
            subs = [(v, item, (*path, i)) for i, item in enumerate(x)]
        elif key == "required" and obj:
            messages = [f"{k!r} is a required property" for k in v if k not in x]
        elif key == "additionalProperties" and obj and v is False:
            extra = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
            if extra:
                messages = ["Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(quote, extra)), "was" if len(extra) == 1 else "were")]
        elif key == "type" and not typed:
            messages = [f"{quote(x)} is not of type {v!r}"]
        elif key == "const" and not _equal(x, v):
            messages = [f"{v!r} was expected"]
        elif key == "enum" and not any(_equal(x, e) for e in v):
            messages = [f"{quote(x)} is not one of {v!r}"]
        elif key == "not" and not any(_schema_errors(v, x, quote)):
            messages = [f"{quote(x)} should not be valid under {v!r}"]
        elif key in _BOUNDS and num and _BOUNDS[key][0](x, v):
            messages = [f"{quote(x)} is {_BOUNDS[key][1]} {v!r}"]
        elif key == "minItems" and arr and len(x) < v:
            messages = [f"{quote(x)} {'should be non-empty' if v == 1 else 'is too short'}"]
        elif key == "maxItems" and arr and len(x) > v:
            messages = [f"{quote(x)} {'is expected to be empty' if v == 0 else 'is too long'}"]
        for sub, value, sub_path in subs:
            yield from _schema_errors(sub, value, quote, sub_path)
        for message in messages:
            yield path, key, v, message, typed


def _is_type(x, name):
    """JSON Schema's type test: a bool is not a number, and 3.0 is an integer."""
    return (not isinstance(x, bool) and isinstance(x, _TYPES[name])
            or name == "integer" and isinstance(x, float) and x.is_integer())


def _equal(a, b):
    """JSON equality: a bool equals only itself, 0 == 0.0 == -0.0, lists item by item."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b
