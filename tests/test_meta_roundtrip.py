"""Property test: a config echoed in a `# meta:` line reads back unchanged."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nmsir.cli import build_config, config_from_meta  # noqa: E402
from nmsir.trajectory import format_meta, parse_meta  # noqa: E402

_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
_pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _spec(draw):
    """A valid recovery-law spec, with stray whitespace around its parts."""
    kind = draw(st.sampled_from(["exp", "fixed", "gamma", "uniform"]))
    if kind == "exp":
        params = [("rate", draw(_pos))]
    elif kind == "fixed":
        params = [("sigma", draw(_pos))]
    elif kind == "gamma":
        params = [("shape", draw(st.integers(1, 8))), ("rate", draw(_pos))]
    else:
        lo = draw(_pos)
        params = [("a", lo), ("b", lo + draw(_pos))]
    body = ",".join(f"{draw(_pad)}{k}{draw(_pad)}={draw(_pad)}{v!r}" for k, v in params)
    return f"{draw(_pad)}{kind}:{body}{draw(_pad)}"


@st.composite
def _config(draw):
    num_nodes = draw(st.integers(2, 10_000))
    return build_config({
        "network.N": str(num_nodes),
        "network.n": str(draw(st.integers(1, num_nodes - 1))),
        "network.fresh_graph_per_run": draw(st.sampled_from(["true", "false", "1", "off"])),
        "epidemic.tau": repr(draw(st.floats(0.0, 10.0, allow_nan=False))),
        "epidemic.dist": draw(_spec()),
        "epidemic.I0": str(draw(st.integers(0, num_nodes))),
        "epidemic.t_end": repr(draw(_pos)),
        "simulation.save_runs": draw(st.sampled_from(["true", "false"])),
        "solver.h": repr(draw(_pos)),
        "outputs.dir": draw(st.text(max_size=12)),
        "outputs.prefix": draw(st.text(max_size=12)),
        "compare.distributions": ";".join(draw(st.lists(_spec(), max_size=3))),
        "compare.enforce": draw(st.sampled_from(["true", "false"])),
    })


@settings(max_examples=200, deadline=None)
@given(_config())
def test_config_meta_round_trip_is_identity(cfg):
    line = format_meta(cfg.flatten())
    assert "\n" not in line
    assert config_from_meta(parse_meta(line)) == cfg
