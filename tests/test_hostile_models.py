"""Hostile edits of a valid model.json end in exit 0 or 2, never a traceback.

Each example takes the model.json that ``LatentModel.to_json`` writes for one
vector source kind, replaces one value at any depth with a hostile one or
deletes one key, and runs ``generate --model`` on the result.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_clean_exit, run_cli
from wrdpm.model import (
    AxisNoise,
    Constant,
    EdgeDistribution,
    FiniteSupport,
    LatentModel,
    MultiresolutionAxis,
    Ray,
)

SOURCES = {
    "constant": Constant(np.array([0.6, 0.2])),
    "finite_support": FiniteSupport(np.array([[1.0, 0.1], [0.1, 1.0]]), np.array([0.5, 0.5]),
                                    np.array([0, 1, 1, 0])),
    "axis_noise": AxisNoise(2, 0.01),
    "multiresolution_axis": MultiresolutionAxis(2, 0.01, 2.0),
    "ray": Ray(np.array([0.5, 0.5]), magnitudes=np.array([1.0, 2.0, 0.5, 1.5])),
}

# Replacement values as JSON text: json reads NaN and Infinity literals, and
# 1e400 as inf.
HOSTILE = ("NaN", "Infinity", "1e400", "-1", "0", '""', "[]", "[[]]", "true",
           "[[1.0, 2.0], [3.0, 4.0]]")
DELETE = object()
SLOT = "@slot@"


def value_paths(doc, prefix=()):
    """The path of every value in a parsed JSON document, keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


@st.composite
def mutated_models(draw, kind):
    doc = json.loads(LatentModel(EdgeDistribution("poisson"), 4, SOURCES[kind]).to_json())
    path = draw(st.sampled_from(list(value_paths(doc))))
    action = draw(st.sampled_from(HOSTILE + ((DELETE,) if isinstance(path[-1], str) else ())))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action is DELETE:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = SLOT
    return json.dumps(doc).replace(json.dumps(SLOT), action)


@pytest.mark.parametrize("kind", sorted(SOURCES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_model_file_exits_cleanly(kind, data):
    code, message, caught, made = run_cli(["generate", "--model", "{model}"],
                                          {"model": data.draw(mutated_models(kind))})
    assert_clean_exit(code, message, caught, made, codes=(0, 2))
