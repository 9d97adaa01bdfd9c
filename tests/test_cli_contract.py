"""Property test of the CLI contract: exit codes, error lines and written files.

Every command runs on small drawn configurations, valid and invalid.  A run
ends in 0, 2 or 3, never in a traceback; exit 2 prints exactly one
``error:`` line and writes nothing; every CSV written holds finite numbers
and rebuilds its run from its ``# meta:`` line.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nmsir import load_edge_list  # noqa: E402
from nmsir.cli import build_config, config_from_meta, main  # noqa: E402
from nmsir.trajectory import parse_meta  # noqa: E402

def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


_LAWS = {
    "markovian": _reals(0.2, 3.0).map(lambda r: f"exp:rate={r}"),
    "fixed": _reals(0.05, 2.0).map(lambda s: f"fixed:sigma={s}"),
    "gamma": st.tuples(st.integers(1, 9), _reals(0.5, 8.0)).map(
        lambda kr: "gamma:shape=%d,rate=%s" % kr),
    "uniform": st.tuples(_reals(0.05, 1.0), _reals(0.05, 1.0)).map(
        lambda ab: f"uniform:a={ab[0]},b={float(ab[0]) + float(ab[1])!r}"),
}
_law = st.one_of(*_LAWS.values())

# Valid values.  The keys that set a run's size are always drawn, and small:
# at most 60 nodes, 2 runs, 100 output points and 500 solver steps; a valid
# graph has an even node count above the degree.
_SIZES = {
    "network.N": st.integers(8, 30).map(lambda half: str(2 * half)),
    "network.n": st.integers(2, 12).map(str),
    "simulation.runs": st.integers(1, 2).map(str),
    "epidemic.t_end": _reals(0.1, 5.0),
    "simulation.dt_out": _reals(0.05, 2.0),
    "solver.h": _reals(0.01, 0.1),
}
_OTHERS = {
    "network.graph_seed": st.integers(0, 5).map(str),
    "network.fresh_graph_per_run": st.sampled_from(["true", "false"]),
    "epidemic.tau": _reals(0.0, 4.0),
    "epidemic.I0": st.integers(0, 8).map(str),
    "simulation.base_seed": st.integers(0, 5).map(str),
    "simulation.save_runs": st.sampled_from(["true", "false"]),
    "compare.distributions": st.lists(_law, max_size=2).map(";".join),
    "compare.enforce": st.sampled_from(["true", "false"]),
    "compare.gnuplot": st.sampled_from(["true", "false"]),
}
# Invalid values, at most one of which replaces a valid one in a run.
_INVALID = {
    "network.N": ["1", "15", "many"],
    "network.n": ["0", "1", "60"],
    "network.graph_seed": ["-1"],
    "epidemic.tau": ["nan", "-0.5", "inf"],
    "epidemic.dist": ["exp:rate=-1", "fixed:sigma=0", "uniform:a=2,b=1",
                      "gamma:shape=2.5,rate=1", "weibull:k=2", ""],
    "epidemic.I0": ["-1", "61"],
    "epidemic.t_end": ["0", "nan"],
    "simulation.runs": ["0"],
    "simulation.base_seed": ["-1"],
    "simulation.dt_out": ["0", "inf"],
    "simulation.save_runs": ["maybe"],
    "solver.h": ["0", "-1e-2", "5"],
    "compare.distributions": ["exp:rate=0", "fixed:sigma=1;"],
}

COMMANDS = [["simulate"], ["analytics"], ["compare"], ["graph-gen"]] + [
    ["solve", "--model", model]
    for model in ("pairwise", "meanfield", "special:markovian", "special:fixed",
                  "special:gamma", "special:uniform")
]


@st.composite
def _pairs(draw, command):
    """``--set`` pairs for ``command``; a special model gets a law of its kind."""
    pairs = draw(st.fixed_dictionaries(_SIZES, optional=_OTHERS))
    kind = command[-1].partition(":")[2]
    pairs["epidemic.dist"] = draw(_LAWS[kind] if kind else _law)
    bad = draw(st.none() | st.sampled_from(sorted(_INVALID)))
    if bad is not None:
        pairs[bad] = draw(st.sampled_from(_INVALID[bad]))
    return pairs


def _files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []


def _check_csv(path: Path, expected: dict) -> None:
    """Finite numbers, and a meta line that rebuilds the run's configuration."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    rebuilt = config_from_meta(parse_meta(first.rstrip("\n"))).flatten()
    assert {k: v for k, v in rebuilt.items() if not k.startswith("outputs.")} == expected
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a law spec or method name
            assert math.isfinite(value), (path.name, row)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_on_drawn_configurations(fuzz_root, command, data):
    pairs = data.draw(_pairs(command))
    out = Path(tempfile.mkdtemp(dir=fuzz_root)) / "out"
    argv = [*command, *(a for k, v in pairs.items() for a in ("--set", f"{k}={v}")),
            "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    written = _files(out)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert written == [], argv
        return
    assert written, argv
    cfg = build_config(pairs)
    expected = {k: v for k, v in cfg.flatten().items() if not k.startswith("outputs.")}
    for path in written:
        if path.suffix == ".csv":
            _check_csv(path, expected)
        elif command[0] == "graph-gen":
            graph = load_edge_list(path)
            assert (graph.num_nodes, graph.degree) == (cfg.network_num_nodes, cfg.network_degree)
        else:
            assert path.name == "compare.gp" and cfg.compare_gnuplot
