import csv
import pathlib
import re

import numpy as np
import pytest

import mjsreduce.experiments as experiments
import mjsreduce.lqr as lqr
from mjsreduce.errors import DimensionMismatch, InputError, NotConverged
from mjsreduce.experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    config_digest,
    resolved_config,
    run_experiment,
)

PROVENANCE = re.compile(
    r"^# experiment=(\w+) config_sha256=[0-9a-f]{12} seed=\d+ full=[01]$"
)


def read_csv(path):
    lines = path.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def test_spec_validation():
    with pytest.raises(InputError, match="unknown experiment"):
        ExperimentSpec("fig9")
    with pytest.raises(InputError, match="empty"):
        ExperimentSpec("fig2", grid=())
    # fig4 has no sweep; its config digest would not record a grid.
    for grid in ((1.0, 2.0), ()):
        with pytest.raises(InputError, match="fig4 has no sweep"):
            ExperimentSpec("fig4", grid=grid)
    with pytest.raises(DimensionMismatch, match="trials must be an integer of at least 1"):
        ExperimentSpec("fig2", trials=0)
    # Fractions, bools and strings are refused here, not deep in a protocol.
    for trials in (2.5, True, "3", -1):
        with pytest.raises(DimensionMismatch, match="trials"):
            ExperimentSpec("fig4", trials=trials)
    for seed in (-1, 1.5, None, "0"):
        with pytest.raises(DimensionMismatch, match="seed must be an integer of at least 0"):
            ExperimentSpec("fig4", seed=seed)
    assert ExperimentSpec("fig4", seed=np.int64(3), trials=np.int32(2)).trials == 2
    assert ExperimentSpec("fig2", grid=[0.0, 1.0]).grid == (0.0, 1.0)


def test_resolved_config_defaults():
    assert set(EXPERIMENT_NAMES) == {"fig2", "fig3a", "fig3b", "fig4", "table2"}
    fig2 = resolved_config(ExperimentSpec("fig2"))
    assert fig2["s_values"] == (8, 16, 32)
    assert fig2["eps_norms"] == (0.0, 0.25, 1.0, 2.5)
    assert fig2["branches"] == ("aggregatable", "lumpable")
    assert (fig2["trials"], fig2["r"], fig2["n"], fig2["p"]) == (25, 4, 5, 3)
    fig2_full = resolved_config(ExperimentSpec("fig2", full=True))
    assert fig2_full["s_values"] == (8, 16, 32, 64)
    assert fig2_full["trials"] == 100
    fig3a = resolved_config(ExperimentSpec("fig3a"))
    assert (fig3a["s"], fig3a["n"], fig3a["p"], fig3a["trials"]) == (16, 4, 2, 5)
    assert fig3a["sigma_w"] == pytest.approx(np.sqrt(0.1), rel=1e-15)
    fig3b = resolved_config(ExperimentSpec("fig3b"))
    assert fig3b["s_values"] == (10, 20, 40, 60)
    assert (fig3b["r"], fig3b["n"], fig3b["p"]) == (5, 6, 3)
    fig4 = resolved_config(ExperimentSpec("fig4"))
    assert fig4 == {"horizon": 25, "n_traj": 500}
    assert resolved_config(ExperimentSpec("fig4", trials=20))["n_traj"] == 20
    table2 = resolved_config(ExperimentSpec("table2"))
    assert (table2["s"], table2["r"]) == (36, 12)
    assert table2["r_hats"] == (6, 12, 24, 36)
    full2 = resolved_config(ExperimentSpec("table2", full=True))
    assert (full2["s"], full2["r"]) == (90, 30)
    assert full2["r_hats"] == (10, 30, 60, 90)


def test_config_digest_tracks_inputs():
    spec = ExperimentSpec("fig4")
    d1 = config_digest(spec, resolved_config(spec))
    assert re.fullmatch(r"[0-9a-f]{12}", d1)
    other = ExperimentSpec("fig4", seed=1)
    d2 = config_digest(other, resolved_config(other))
    assert d1 != d2
    again = ExperimentSpec("fig4")
    assert config_digest(again, resolved_config(again)) == d1


@pytest.mark.invariant
def test_fig4_reruns_are_byte_identical(tmp_path):
    a = run_experiment(
        ExperimentSpec("fig4", trials=20, out_dir=str(tmp_path / "a"))
    )
    b = run_experiment(
        ExperimentSpec("fig4", trials=20, out_dir=str(tmp_path / "b"))
    )
    data_a = (tmp_path / "a" / "fig4.csv").read_bytes()
    assert a.endswith("fig4.csv") and b.endswith("fig4.csv")
    assert data_a == (tmp_path / "b" / "fig4.csv").read_bytes()
    assert len(data_a) > 0


@pytest.mark.invariant
def test_fig2_output_reproducible(tmp_path):
    first = run_experiment(
        ExperimentSpec(
            "fig2", grid=(0.0, 1.0), trials=2, out_dir=str(tmp_path / "first"),
        )
    )
    second = run_experiment(
        ExperimentSpec(
            "fig2", grid=(0.0, 1.0), trials=2, out_dir=str(tmp_path / "second"),
        )
    )
    assert (tmp_path / "first" / "fig2.csv").read_bytes() == (
        tmp_path / "second" / "fig2.csv"
    ).read_bytes()
    comment, header, rows = read_csv(tmp_path / "first" / "fig2.csv")
    assert PROVENANCE.match(comment).group(1) == "fig2"
    assert header == ["s", "eps_norm", "branch", "mr_median", "mr_q1", "mr_q3"]
    assert len(rows) == 3 * 2 * 2
    assert first != second


@pytest.mark.invariant
def test_every_protocol_writes_provenance_and_header(tmp_path):
    path = run_experiment(
        ExperimentSpec("fig4", trials=5, out_dir=str(tmp_path))
    )
    comment, header, rows = read_csv(tmp_path / "fig4.csv")
    m = PROVENANCE.match(comment)
    assert m and m.group(1) == "fig4"
    assert header == ["t", "mean_diff", "bound"]
    assert len(rows) == 26
    assert path.endswith("fig4.csv")
    ts = [int(r[0]) for r in rows]
    assert ts == list(range(26))
    assert all(float(r[1]) >= 0.0 and float(r[2]) >= 0.0 for r in rows)


def test_fig3a_smoke(tmp_path):
    run_experiment(
        ExperimentSpec("fig3a", grid=(0.0,), trials=1, out_dir=str(tmp_path))
    )
    comment, header, rows = read_csv(tmp_path / "fig3a.csv")
    assert PROVENANCE.match(comment).group(1) == "fig3a"
    assert header == ["eps_AB", "eps_T", "subopt_median"]
    assert len(rows) == 3
    for row in rows:
        assert np.isfinite(float(row[2]))
    clean = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(clean) == 1
    assert abs(float(clean[0][2])) <= 1e-9


DATA = pathlib.Path(__file__).parent / "data"
# Seed-7 outputs kept under tests/data.  Regenerate one only with a
# change that deliberately moves a number, and record that change.
GOLDEN = {
    "fig4": {},
    "fig3a": {"trials": 1},
    "table2": {"trials": 1},
    "fig2": {"trials": 2, "grid": (0.0, 1.0)},
}
TIMING_COLUMNS = {"time_sec", "time_full_ms", "time_reduced_ms"}


def without_timings(path):
    comment, header, rows = read_csv(path)
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return comment, [[row[i] for i in keep] for row in [header] + rows]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_outputs_reproduce(tmp_path, name):
    run_experiment(ExperimentSpec(name, seed=7, out_dir=str(tmp_path), **GOLDEN[name]))
    assert without_timings(tmp_path / f"{name}.csv") == without_timings(
        DATA / f"{name}.csv"
    )


def test_a_failed_write_removes_the_partial_file(monkeypatch, tmp_path):
    # The provenance line and the header are on disk when a row fails.
    def full_disk(v):
        raise OSError("no space left on device")

    monkeypatch.setattr(experiments, "_fmt", full_disk)
    with pytest.raises(OSError, match="no space left"):
        run_experiment(ExperimentSpec("fig4", trials=1, out_dir=str(tmp_path)))
    assert not (tmp_path / "fig4.csv").exists()


@pytest.mark.parametrize("which", ["reduced", "full"])
def test_fig3b_refuses_to_time_an_unconverged_solve(monkeypatch, tmp_path, which):
    spec = ExperimentSpec("fig3b", trials=1, grid=(10,), out_dir=str(tmp_path))
    r = resolved_config(spec)["r"]
    solve = experiments.riccati_solve

    def short_budget(m, Q, R):
        with monkeypatch.context() as patch:
            if (m.s == r) == (which == "reduced"):
                patch.setattr(lqr, "RICCATI_STEPS", 2)
            return solve(m, Q, R)

    monkeypatch.setattr(experiments, "riccati_solve", short_budget)
    size = rf"\(s, n, p\) = \({r if which == 'reduced' else 10}, 6, 3\)"
    with pytest.raises(NotConverged, match=rf"{size} did not converge in 2 steps"):
        run_experiment(spec)
    assert not (tmp_path / "fig3b.csv").exists()
