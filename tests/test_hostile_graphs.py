"""Hostile graph files end in exit 0, 1, 2 or 3, never a traceback.

Each example writes a graph of at most five nodes as an edge list or a dense
CSV, with weights drawn from values that break naive arithmetic (near the
float maximum, subnormal, NaN, infinite, negative), optionally damages the
text (a ragged row, a bad or oversized ``n=`` header, a weight token
replaced), and runs one of ``embed``, ``cluster``, ``sweep`` or ``null`` on
it through ``cli.main``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_clean_exit, run_cli

COMMANDS = {
    "embed": ["embed", "--d", "2"],
    "cluster": ["cluster", "--d", "2"],
    "sweep": ["sweep", "--d-range", "1..2"],
    "null": ["null", "--samples", "3"],
}
WEIGHTS = ("0", "1", "2.5", "1e-320", "1e154", "1e300", "1e308", "1.7976931348623157e308")
HOSTILE = ("nan", "inf", "-inf", "1e400", "-1", "-1e308", "x", "")
HEADERS = ("n=0", "n=-2", "n=x", "n=", "n=1", "n=6", "n=99999999999", "n=20001")

OVERFLOWING_TRIANGLE = "n=3\n0 1 1e308\n1 2 1e308\n0 2 1e308\n"
# At d = 1 the stress of this fit is nan (exit 3), from inf - inf.
NAN_STRESS = "n=5\n0 3 1e308\n1 3 1e300\n1 4 1e308\n"


@st.composite
def graph_files(draw):
    """(format, file text) of a small graph, damaged or not."""
    n = draw(st.integers(1, 5))
    pairs = [(j, l) for j in range(n) for l in range(j + 1, n)]
    weights = {p: draw(st.sampled_from(WEIGHTS)) for p in pairs}
    fmt = draw(st.sampled_from(["edge-list", "dense"]))
    if fmt == "edge-list":
        rows = [["n=%d" % n]] + [[str(j), str(l), w] for (j, l), w in weights.items()
                                  if w != "0"]
    else:
        rows = [[weights.get((min(j, l), max(j, l)), "0") for l in range(n)]
                for j in range(n)]
    damage = draw(st.sampled_from(["none", "weight", "ragged", "header", "empty"]))
    body = [r for r in rows if r[0][:2] != "n="]
    if damage == "weight" and body:
        row = draw(st.sampled_from(body))
        row[draw(st.integers(0, len(row) - 1)) if fmt == "dense" else 2] = \
            draw(st.sampled_from(HOSTILE))
    elif damage == "ragged" and body:
        row = draw(st.sampled_from(body))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("1")
    elif damage == "header":
        header = [draw(st.sampled_from(HEADERS))]
        if fmt == "edge-list":
            rows[0] = header
        else:
            rows.insert(0, header)
    elif damage == "empty":
        rows = []
    sep = " " if fmt == "edge-list" else ","
    return fmt, "".join(sep.join(r) + "\n" for r in rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), graph=graph_files())
@example(command="sweep", graph=("edge-list", OVERFLOWING_TRIANGLE))
@example(command="null", graph=("edge-list", OVERFLOWING_TRIANGLE))
@example(command="sweep", graph=("edge-list", NAN_STRESS))
@example(command="null", graph=("edge-list", "n=4\n0 2 1\n1 2 1\n2 3 1e308\n"))
@example(command="embed", graph=("dense", ""))
@example(command="cluster", graph=("edge-list", "n=3\n0 2 1e300\n1 2 1.7976931348623157e308\n"))
@example(command="cluster", graph=("edge-list", "n=5\n0 4 1.7976931348623157e308\n"
                                   "1 2 1.7976931348623157e308\n3 4 1.7976931348623157e308\n"))
def test_hostile_graph_file_exits_cleanly(command, graph):
    fmt, text = graph
    assert_clean_exit(*run_cli(COMMANDS[command] + ["--graph", "{graph}", "--format", fmt],
                               {"graph": text}))


def test_nan_stress_is_a_numerical_failure_without_a_warning():
    code, message, caught, made = run_cli(COMMANDS["sweep"] + ["--graph", "{graph}"],
                                          {"graph": NAN_STRESS})
    assert code == 3, message
    assert_clean_exit(code, message, caught, made)
