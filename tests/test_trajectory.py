"""Trajectory CSV round trips and parameter-record validation."""

import csv

import numpy as np
import pytest

import nmsir as nm
from nmsir.cli import main
from nmsir.trajectory import SERIES_NAMES, Trajectory, write_csv


def _toy_trajectory():
    t = np.linspace(0.0, 1.0, 11)
    S = 1000.0 - 3.3 * t
    I = 5.0 + np.sin(t) / 7.0
    R = 1000.0 - S - I
    SI = 74.7 * np.exp(-t / 3.0)
    SS = 14850.0 - t
    return Trajectory(t, S, I, R, SI, SS, meta={"N": 1000, "alpha": 0.1})


def test_csv_round_trip_is_lossless(tmp_path):
    traj = _toy_trajectory()
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    for name in ("S", "I", "R", "SI", "SS"):
        np.testing.assert_array_equal(back.series(name), traj.series(name))
    np.testing.assert_array_equal(back.t, traj.t)
    assert back.meta["N"] == "1000"
    # Writing the parsed copy reproduces the data section byte for byte.
    path2 = tmp_path / "traj2.csv"
    back.meta = dict(traj.meta)
    back.to_csv(path2)
    assert path.read_text() == path2.read_text()


def test_csv_std_suffix_round_trip(tmp_path):
    traj = _toy_trajectory()
    path = tmp_path / "std.csv"
    traj.to_csv(path, column_suffix="_std")
    header = path.read_text().splitlines()[1]
    assert header == "t,S_std,I_std,R_std,SI_std,SS_std"
    back = Trajectory.from_csv(path)
    np.testing.assert_array_equal(back.I, traj.I)


def test_series_length_mismatch_rejected():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros(4), np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(5))


def test_peak_and_final_size_helpers():
    traj = _toy_trajectory()
    t_pk, v_pk = traj.peak_infected()
    assert v_pk == traj.I.max()
    assert traj.final_size(1000.0) == pytest.approx(1000.0 - traj.S[-1])
    assert traj.final_size() == pytest.approx(1000.0 - traj.S[-1])  # N from the first row


def test_final_size_of_a_cli_file_read_back(tmp_path):
    # CLI meta names the node count network.N, not N; the first row holds it.
    assert main(["solve", "--set", "epidemic.t_end=2", "--out", str(tmp_path)]) == 0
    traj = Trajectory.from_csv(tmp_path / "solve_pairwise.csv")
    assert "N" not in traj.meta
    assert traj.final_size() == traj.final_size(1000) == 1000.0 - traj.S[-1]


def test_csv_without_data_rows_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, {"N": 10}, ["t", *SERIES_NAMES], [])
    with pytest.raises(ValueError, match="empty.csv"):
        Trajectory.from_csv(path)


def test_epidemic_params_validation():
    for tau in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            nm.EpidemicParams(tau=tau, dist=nm.Exponential(1.0))
    for i0 in (-1, float("nan"), float("inf"), 2.5):
        with pytest.raises(ValueError):
            nm.EpidemicParams(tau=0.3, dist=nm.Exponential(1.0), initial_infected=i0)
    for i0 in (5, 5.0, np.int64(5)):
        p = nm.EpidemicParams(tau=0.3, dist=nm.Exponential(1.0), initial_infected=i0)
        assert p.initial_infected == 5 and type(p.initial_infected) is int
    for t_end in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            nm.EpidemicParams(tau=0.3, dist=nm.Exponential(1.0), t_end=t_end)


def test_solver_config_validation():
    for h in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            nm.SolverConfig(h=h)


def test_write_csv_literal_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path, {"command": "analytics", "tau": np.float64(0.35)}, ["kind", "mean", "n"],
        [["gamma:shape=3,rate=2.0", np.float64(1.5), 3], ['say "hi"', 0.1, 2.5]],
    )
    assert path.read_bytes() == (
        b"# meta: command=analytics tau=0.35\n"
        b"kind,mean,n\n"
        b'"gamma:shape=3,rate=2.0",1.5,3.0\n'
        b'"say ""hi""",0.1,2.5\n'
    )
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[2:]] == ["gamma:shape=3,rate=2.0", 'say "hi"']


def test_numpy_scalar_params_write_plain_meta(tmp_path):
    params = nm.EpidemicParams(
        tau=np.float64(0.35), dist=nm.Exponential(np.float64(0.5)), t_end=np.float64(1.0)
    )
    path = tmp_path / "solve.csv"
    nm.solve_pairwise(params, num_nodes=100, degree=4).to_csv(path)
    meta_line = path.read_text().splitlines()[0]
    assert "tau=0.35 " in meta_line and "dist=exp:rate=0.5 " in meta_line
    assert "np." not in meta_line
