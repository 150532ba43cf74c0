"""Hostile sbm and chung-lu specs and embedding CSVs end in exit 0, 1, 2 or 3.

Spec examples take a valid spec JSON of ``generate --builtin sbm`` or
``--builtin chung-lu``, replace one value at any depth (with the values of
test_hostile_models.py, a magnitude near the float maximum or a ragged
array) or delete one key, and run ``generate`` on it. Embedding examples
write a CSV of at most four rows and three columns, with entries drawn from
values that break naive arithmetic and optionally damaged text, and run
``likelihood`` or ``null --null dot_product`` on it against a small graph.
Every run goes through ``cli.main``.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_clean_exit, run_cli
from test_hostile_models import DELETE, HOSTILE, SLOT, value_paths

SPECS = {
    "sbm": {"B": [[1.0, 0.1], [0.1, 1.0]], "sizes": [2, 2], "family": "poisson",
            "normalize": False},
    "chung-lu": {"weights": [1.0, 2.0, 0.5, 1.5], "d": 2, "family": "poisson"},
}
OVERFLOWING = ("1e154", "1e308", "1.7976931348623157e308", "-1e308", "1e-320")
RAGGED = ("[[1.0, 2.0], [3.0]]", "[1.0, [2.0]]", "[[[1.0]]]")

ENTRIES = ("0", "1", "0.5", "-1", "1e-320", "1e154", "1e300", "1.7976931348623157e308")
DAMAGE = ("nan", "inf", "-inf", "1e400", "x", "")
GRAPHS = ("n=3\n0 1 1\n1 2 3\n", "n=3\n0 1 1e308\n1 2 1e308\n0 2 1e308\n", "n=3\n0 1 2.5\n")
OVERFLOWING_TRIANGLE = GRAPHS[1]
ROOT_ROWS = "1e154\n1e154\n1e154\n"
ZERO_ROWS = "0\n0\n0\n"
COMMANDS = {
    "likelihood": [["likelihood"], ["likelihood", "--clamp"],
                   ["likelihood", "--family", "bernoulli", "--clamp"]],
    "null": [["null", "--null", "dot_product", "--samples", "3", "--statistic", s]
             for s in ("avg_weighted_clustering", "total_weight", "log_likelihood")],
}


@st.composite
def mutated_specs(draw, builtin):
    doc = json.loads(json.dumps(SPECS[builtin]))
    path = draw(st.sampled_from(list(value_paths(doc))))
    values = HOSTILE + OVERFLOWING + RAGGED
    action = draw(st.sampled_from(values + ((DELETE,) if isinstance(path[-1], str) else ())))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action is DELETE:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = SLOT
    return json.dumps(doc).replace(json.dumps(SLOT), action)


def spec_text(builtin, **changes):
    return json.dumps({**SPECS[builtin], **changes})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(spec=st.sampled_from(sorted(SPECS)).flatmap(
    lambda builtin: st.tuples(st.just(builtin), mutated_specs(builtin))))
@example(spec=("sbm", spec_text("sbm", B=[[1e-3, 1e-14], [1e-20, 1e-3]])))
@example(spec=("sbm", spec_text("sbm", B=[[1e308, 1e308], [1e308, 1e308]])))
@example(spec=("chung-lu", spec_text("chung-lu", weights=[1e308, 1e308])))
@example(spec=("chung-lu", spec_text("chung-lu", weights=[])))
@example(spec=("chung-lu", spec_text("chung-lu", weights=1e-320)))
@example(spec=("sbm", spec_text("sbm", normalize="false")))
def test_hostile_spec_exits_cleanly(spec):
    builtin, text = spec
    assert_clean_exit(*run_cli(["generate", "--builtin", builtin, "--spec", "{spec}"],
                               {"spec": text}))


def test_sbm_past_the_float_range_is_a_data_error_without_a_warning():
    # ||B||_F of these entries overflows as a plain sum of squares.
    code, message, caught, made = run_cli(
        ["generate", "--builtin", "sbm", "--spec", "{spec}"],
        {"spec": spec_text("sbm", B=[[1e308, 1e308], [1e308, 1e308]])})
    assert code == 2, message
    assert_clean_exit(code, message, caught, made)


@pytest.mark.parametrize("scale", [1e-12, 1.0])
def test_sbm_b_that_is_not_psd_is_a_data_error_at_every_scale(scale):
    # The eigenvalue -scale of this B is refused however small B is.
    code, message, caught, made = run_cli(
        ["generate", "--builtin", "sbm", "--spec", "{spec}"],
        {"spec": spec_text("sbm", B=[[0.0, scale], [scale, 0.0]])})
    assert_clean_exit(code, message, caught, made, codes=(2,))
    assert "not PSD" in message


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_sbm_normalize_that_is_not_a_boolean_is_a_data_error(value):
    # bool() of the string "false" is True: it would normalize.
    code, message, caught, made = run_cli(
        ["generate", "--builtin", "sbm", "--spec", "{spec}"],
        {"spec": spec_text("sbm", normalize=value)})
    assert_clean_exit(code, message, caught, made, codes=(2,))
    assert "'normalize' must be a boolean" in message


@st.composite
def embedding_csvs(draw):
    """The text of a CSV of at most 4 x 3 entries, damaged or not."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 3))
    table = [[draw(st.sampled_from(ENTRIES)) for _ in range(cols)] for _ in range(rows)]
    damage = draw(st.sampled_from(["none", "entry", "ragged", "empty"]))
    if damage == "entry":
        row = draw(st.sampled_from(table))
        row[draw(st.integers(0, cols - 1))] = draw(st.sampled_from(DAMAGE))
    elif damage == "ragged":
        row = draw(st.sampled_from(table))
        if draw(st.booleans()) and len(row) > 1:
            row.pop()
        else:
            row.append("1")
    elif damage == "empty":
        table = []
    return "".join(",".join(r) + "\n" for r in table)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), variant=st.integers(0, 2),
       graph=st.sampled_from(GRAPHS), embedding=embedding_csvs())
@example(command="likelihood", variant=0, graph=OVERFLOWING_TRIANGLE, embedding=ROOT_ROWS)
@example(command="null", variant=0, graph=OVERFLOWING_TRIANGLE, embedding=ROOT_ROWS)
@example(command="null", variant=1, graph=OVERFLOWING_TRIANGLE, embedding=ROOT_ROWS)
@example(command="null", variant=2, graph=OVERFLOWING_TRIANGLE, embedding=ROOT_ROWS)
@example(command="likelihood", variant=0, graph=GRAPHS[0], embedding="0\n0\n1e300\n")
@example(command="likelihood", variant=0, graph=GRAPHS[0],
         embedding="1\n1\n1.7976931348623157e308\n")
@example(command="likelihood", variant=1, graph=GRAPHS[0], embedding=ZERO_ROWS)
@example(command="null", variant=2, graph=GRAPHS[0], embedding=ZERO_ROWS)
@example(command="likelihood", variant=0, graph=GRAPHS[0], embedding="")
@example(command="null", variant=0, graph=GRAPHS[0], embedding="# no rows\n")
def test_hostile_embedding_exits_cleanly(command, variant, graph, embedding):
    argv = COMMANDS[command][variant] + ["--graph", "{graph}", "--embedding", "{embedding}"]
    code, message, caught, made = run_cli(argv, {"graph": graph, "embedding": embedding})
    # A refused embedding is named on the error line, not in a Python warning.
    assert_clean_exit(code, message, caught, made)
