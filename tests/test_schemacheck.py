"""Tests for the in-package schema checker: it fails closed on keywords it
does not implement, and it agrees with jsonschema's Draft7Validator (the
reference, a test dependency) on problem files, reports and seeded
single-edit mutations of both."""

import copy
import json
import random
from pathlib import Path

import pytest

from fsipp import instances, schemacheck
from fsipp.cli import problem_to_doc
from fsipp.schemacheck import Schema, SchemaError

from test_cli import _options_doc, files, run  # noqa: F401  (files: fixture)

MUTATIONS = 2000


# ------------------------------------------------------------- fail closed

def _nest(where: str, sub: dict) -> dict:
    """A draft-07 schema that holds ``sub`` at ``where``."""
    return {
        "root": {"type": "object", **sub},
        "property": {"type": "object", "properties": {"a": sub}},
        "definition": {"definitions": {"d": sub},
                       "properties": {"a": {"$ref": "#/definitions/d"}}},
        "items": {"type": "array", "items": [{"type": "number"}, sub]},
        "oneOf": {"oneOf": [{"type": "null"}, sub]},
        "not": {"not": sub},
    }[where]


@pytest.mark.parametrize("where", ["root", "property", "definition", "items",
                                   "oneOf", "not"])
@pytest.mark.parametrize("sub", [
    {"anyOf": [{"type": "string"}, {"type": "null"}]},
    {"patternProperties": {"^x": {"type": "number"}}},
    {"type": "string", "format": "date-time"},
], ids=["anyOf", "patternProperties", "format"])
def test_unimplemented_keywords_raise_when_loaded(where, sub):
    with pytest.raises(SchemaError, match="unsupported keyword"):
        Schema(_nest(where, sub))


@pytest.mark.parametrize("sub", [
    {"additionalProperties": {"type": "number"}},
    {"additionalProperties": True},
    {"$ref": "#/definitions/missing"},
    {"$ref": "other.json#/definitions/d"},
    {"type": "float"},
    {"minimum": "0"},
    {"exclusiveMinimum": True},
    {"required": "kind"},
], ids=["additional-schema", "additional-true", "missing-ref", "remote-ref",
        "type-name", "minimum-string", "draft4-exclusive", "required-string"])
def test_unimplemented_keyword_forms_raise_when_loaded(sub):
    with pytest.raises(SchemaError):
        Schema({"properties": {"a": sub}})


def test_other_drafts_raise_when_loaded():
    with pytest.raises(SchemaError, match="draft-07"):
        Schema({"$schema": "https://json-schema.org/draft/2020-12/schema"})


def test_packaged_schemas_load():
    for name in ("problem", "report"):
        assert schemacheck.load(name).schema["$id"] == f"fsipp/{name}.schema.json"


def test_draft7_integers_and_ref_siblings():
    schema = Schema({"definitions": {"n": {"type": "integer", "minimum": 0}},
                     "items": {"$ref": "#/definitions/n", "minimum": 5}})
    # 2.0 is an integer, True is not; the sibling "minimum" is not read
    assert [p for p, _ in schema.errors([0, 2.0, 7, True, -1, 1.5])] == \
        [(3,), (4,), (5,)]


# ------------------------------------------------------------- the reference

@pytest.fixture(scope="module")
def reference():
    jsonschema = pytest.importorskip("jsonschema")
    return {name: jsonschema.Draft7Validator(schemacheck.load(name).schema)
            for name in ("problem", "report")}


def _packaged_problems() -> list[dict]:
    docs = []
    for make in (instances.case1_problem, instances.case2_problem,
                 instances.case3_problem, instances.case4_problem,
                 instances.quarter_circle_problem):
        prob, opts = make()
        docs.append(problem_to_doc(prob, options=_options_doc(opts) or None))
    for make in (instances.biobjective_case1, instances.biobjective_case2,
                 instances.biobjective_case3, instances.biobjective_case4):
        mprob, u0, _ = make()
        docs.append(problem_to_doc(mprob, hints={"feasible_point": list(u0)}))
    for seed in (0, 1):
        prob, opts, _, _ = instances.planted_convex_quadratic(seed)
        docs.append(problem_to_doc(prob, options=_options_doc(opts) or None))
    return [json.loads(json.dumps(doc)) for doc in docs]


@pytest.fixture(scope="module")
def paths(files):
    """The problem files tests/test_cli.py writes, by name."""
    out = {key: path for key, path in files.items() if key != "dir"}
    doc = problem_to_doc(instances.case1_problem()[0], hints={"bound": 2})
    bound = files["dir"] / "case1_bound.json"
    bound.write_text(json.dumps(doc), encoding="utf-8")
    out["case1_bound"] = str(bound)
    out["missing"] = str(files["dir"] / "missing.json")
    return out


@pytest.fixture(scope="module")
def problem_docs(paths):
    written = [json.loads(Path(path).read_text(encoding="utf-8"))
               for key, path in paths.items()
               if path.endswith(".json") and key != "missing"]
    return _packaged_problems() + written


# the commands whose reports tests/test_cli.py checks, one per outcome
REPORT_COMMANDS = [
    ["solve", "quarter"], ["solve", "case4"], ["solve", "infeasible"],
    ["solve", "case1_bound"], ["solve", "bad"], ["solve", "pair"],
    ["solve", "missing"], ["solve", "notjson"],
    ["certify", "quarter", "0.7377,0.6033"], ["certify", "quarter", "0,0"],
    ["certify", "quarter", "0.95,0.95"], ["certify", "quarter", "2,2"],
    ["certify", "quarter", "1,2,3"],
    ["pareto", "pair"], ["pareto", "pair_bare"], ["pareto", "pair", "5,5"],
]


@pytest.fixture(scope="module")
def report_docs(paths):
    docs = []
    for command, key, *rest in REPORT_COMMANDS:
        _, out, _ = run([command, paths[key], *rest])
        docs.append(json.loads(out))
    return docs


def _pointers(findings) -> set[str]:
    return {"/" + "/".join(map(str, path)) for path in findings}


def _property_names(schema) -> list[str]:
    names = set()
    if isinstance(schema, dict):
        names.update(schema.get("properties", {}))
        for value in schema.values():
            names.update(_property_names(value))
    elif isinstance(schema, list):
        for value in schema:
            names.update(_property_names(value))
    return sorted(names)


VALUES = [None, True, False, 0, 1, -1, 2, 0.0, 1.0, 2.5, -0.5, "", "x",
          "interval", "quadratic", "semialgebraic", "Case2", "solve",
          "CERTIFIED", "0" * 64, [], [0], [0, 1.0], [[0], 1.0],
          [[[0], 1.0]], {}, {"kind": "interval"}]


def _mutate(doc, rng: random.Random, keys: list[str]):
    """``doc`` with one edit at a random node: a value replaced, a key
    dropped or added, an item dropped or appended.  The node is found by
    a random descent from the root that stops at each level with
    probability 1/4, so the top-level fields are edited as often as the
    long coefficient lists."""
    out = json.loads(json.dumps(doc))
    parent, key, node = None, None, out
    while isinstance(node, (dict, list)) and node and rng.random() < 0.75:
        child = rng.choice(list(node) if isinstance(node, dict)
                           else range(len(node)))
        parent, key, node = node, child, node[child]
    moves = ["replace"]
    if isinstance(node, dict):
        moves += ["add"] + (["drop"] if node else [])
    if isinstance(node, list):
        moves += ["append"] + (["drop"] if node else [])
    move = rng.choice(moves)
    value = copy.deepcopy(rng.choice(VALUES))
    if move == "replace":
        if parent is None:
            return value
        parent[key] = value
    elif move == "add":
        node[rng.choice(keys + ["zz"])] = value
    elif move == "append":
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.random() < 0.5
                    else value)
    elif isinstance(node, dict):
        del node[rng.choice(sorted(node))]
    else:
        del node[rng.randrange(len(node))]
    return out


def _agree(name, validator, doc) -> set[str]:
    """Check that both checkers find the same pointers; return the
    reference's keywords (empty for a valid document)."""
    theirs = list(validator.iter_errors(doc))
    ours = schemacheck.load(name).errors(doc)
    assert _pointers(p for p, _ in ours) == \
        _pointers(e.absolute_path for e in theirs), json.dumps(doc)[:400]
    return {e.validator for e in theirs}


def test_problem_files_agree_with_the_reference(reference, problem_docs):
    verdicts = [bool(_agree("problem", reference["problem"], doc))
                for doc in problem_docs]
    assert verdicts.count(True) == 1  # bad.json alone


def test_reports_agree_with_the_reference(reference, report_docs):
    assert not any(_agree("report", reference["report"], doc)
                   for doc in report_docs)


@pytest.mark.parametrize("name", ["problem", "report"])
def test_mutations_agree_with_the_reference(name, reference, problem_docs,
                                            report_docs):
    docs = problem_docs if name == "problem" else report_docs
    keys = _property_names(schemacheck.load(name).schema)
    rng = random.Random(f"fsipp-{name}")
    keywords = set()
    invalid = 0
    for _ in range(MUTATIONS):
        doc = _mutate(rng.choice(docs), rng, keys)
        found = _agree(name, reference[name], doc)
        invalid += bool(found)
        keywords |= found
    # each verdict is at least one in twenty, and the edits reach every
    # keyword that can fail outside a oneOf/not branch
    assert MUTATIONS // 20 < invalid < MUTATIONS - MUTATIONS // 20
    expected = {"type", "required", "additionalProperties", "oneOf", "enum"}
    expected |= ({"minItems", "maxItems", "minimum", "exclusiveMinimum"}
                 if name == "problem" else {"pattern"})
    assert expected <= keywords
