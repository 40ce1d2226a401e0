import json

import numpy as np
import pytest

from mjsreduce.cli import main
from mjsreduce.model import MjsModel, save_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dir(tmp_path, capsys, name="gen", **kw):
    flags = {"--s": "8", "--r": "2", "--n": "3", "--p": "2", "--seed": "3"}
    flags.update(kw)
    out = tmp_path / name
    argv = ["generate", "--out", str(out)]
    for k, v in flags.items():
        argv += [k, v]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    return out, json.loads(stdout)


def test_generate_then_reduce_reports_mr(tmp_path, capsys):
    gen, payload = gen_dir(tmp_path, capsys)
    assert payload["s"] == 8 and payload["r"] == 2
    assert (gen / "model.json").exists()
    assert (gen / "model.truth.json").exists()
    code, stdout, _ = run(
        capsys, "reduce", str(gen / "model.json"), "--r", "2",
        "--out", str(tmp_path / "red"),
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "MR: 0"
    assert lines[1].endswith("reduction.json")
    result = json.loads((tmp_path / "red" / "reduction.json").read_text())
    assert set(result) == {"partition", "reduced", "objective", "restarts_used"}
    assert min(min(c) for c in result["partition"]) == 1
    assert {"A", "B", "T"} <= set(result["reduced"])


def test_reduce_without_sidecar_prints_no_mr(tmp_path, capsys):
    gen, _ = gen_dir(tmp_path, capsys)
    (gen / "model.truth.json").unlink()
    code, stdout, _ = run(
        capsys, "reduce", str(gen / "model.json"), "--r", "2",
        "--out", str(tmp_path / "red"),
    )
    assert code == 0
    assert "MR:" not in stdout


def test_evaluate_partition_forms(tmp_path, capsys):
    gen, _ = gen_dir(tmp_path, capsys, name="g2", **{"--s": "4", "--n": "2", "--p": "1"})
    model = str(gen / "model.json")
    code, out_dict_form, _ = run(
        capsys, "evaluate", model, "--partition", str(gen / "model.truth.json"),
        "--out", str(tmp_path / "e1"),
    )
    assert code == 0
    report = json.loads(out_dict_form)
    assert {"eps_A", "eps_T", "threshold_zero", "predicted_mr_zero"} <= set(report)
    clusters = json.loads((gen / "model.truth.json").read_text())["partition"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(clusters))
    code, out_bare_form, _ = run(
        capsys, "evaluate", model, "--partition", str(bare),
        "--out", str(tmp_path / "e2"),
    )
    assert code == 0
    assert json.loads(out_bare_form)["eps_A"] == report["eps_A"]
    code, out_r_form, _ = run(
        capsys, "evaluate", model, "--r", "2", "--out", str(tmp_path / "e3")
    )
    assert code == 0
    assert json.loads(out_r_form)["eps_A"] == pytest.approx(report["eps_A"], abs=1e-12)
    code, _, err = run(capsys, "evaluate", model, "--out", str(tmp_path / "e4"))
    assert code == 2
    assert "evaluate needs" in err


def test_malformed_model_file(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text("{ not json")
    code, _, err = run(
        capsys, "reduce", str(bad), "--r", "2", "--out", str(tmp_path)
    )
    assert code == 2
    assert err.startswith("InputError:")
    assert "line 1 column" in err


def test_missing_model_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "reduce", str(tmp_path / "nope.json"), "--r", "2",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "cannot read model file" in err


def test_indivisible_generate_fails(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--s", "7", "--r", "3", "--out", str(tmp_path)
    )
    assert code == 3
    assert err.startswith("DegenerateInput:")


def test_stability_exit_codes(tmp_path, capsys):
    from mjsreduce.synth import fig4_model

    model, _ = fig4_model()
    stable_path = tmp_path / "stable.json"
    save_model(model, str(stable_path))
    code, stdout, _ = run(
        capsys, "stability", str(stable_path), "--out", str(tmp_path / "s1")
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["is_mss"] is True
    assert report["rho_aug"] == pytest.approx(0.954, abs=1e-9)
    assert report["tau_exact"] is True
    assert (tmp_path / "s1" / "stability.json").exists()

    shaky = MjsModel(np.array([[[1.2]]]), None, np.array([[1.0]]))
    shaky_path = tmp_path / "shaky.json"
    save_model(shaky, str(shaky_path))
    code, stdout, _ = run(
        capsys, "stability", str(shaky_path), "--out", str(tmp_path / "s2")
    )
    assert code == 1
    assert json.loads(stdout)["is_mss"] is False


def test_stability_on_zero_modes(tmp_path, capsys):
    # Every power of the moment operator vanishes: tau is 1 (k = 0) and
    # certified.  An xi of 0 is refused as a computation error.
    zero = MjsModel(np.zeros((2, 2, 2)), None, np.full((2, 2), 0.5))
    path = tmp_path / "zero.json"
    save_model(zero, str(path))
    code, stdout, err = run(capsys, "stability", str(path), "--out", str(tmp_path / "z1"))
    assert code == 0, err
    report = json.loads(stdout)
    assert report["tau"] == 1.0 and report["tau_certified"] is True
    code, _, err = run(
        capsys, "stability", str(path), "--xi", "0", "--out", str(tmp_path / "z2")
    )
    assert code == 3
    assert err.startswith("XiTooSmall:")


def test_stability_beyond_dense_cap(tmp_path, capsys):
    # s n^2 = 100 * 10^2 = 10 000: tau is the matrix-free upper bound.
    gen, _ = gen_dir(
        tmp_path, capsys, name="big", **{"--s": "100", "--r": "10", "--n": "10", "--p": "0"}
    )
    code, stdout, err = run(
        capsys, "stability", str(gen / "model.json"), "--out", str(tmp_path / "st")
    )
    assert code == 0, err
    report = json.loads(stdout)
    assert report["tau_exact"] is False
    assert report["tau"] >= 1.0
    saved = json.loads((tmp_path / "st" / "stability.json").read_text())
    assert saved["tau_exact"] is False and "tau_certified" in saved


def test_lqr_cli(tmp_path, capsys):
    gen, _ = gen_dir(tmp_path, capsys, name="g3", **{"--s": "4", "--n": "2", "--p": "1"})
    code, stdout, _ = run(
        capsys, "lqr", str(gen / "model.json"), "--r", "2",
        "--out", str(tmp_path / "lqr"),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {
        "J_star", "J_hat", "gap", "iters_full", "iters_reduced",
        "time_full_ms", "time_reduced_ms",
    }
    assert payload["J_star"] > 0.0
    assert (tmp_path / "lqr" / "lqr.json").exists()


def test_lqr_cli_beyond_dense_cap(tmp_path, capsys):
    # s n^2 = 70 * 8^2 = 4480 passes the 4096 cap of the dense augmented
    # matrix, which the mean-square checks no longer build.
    gen, _ = gen_dir(
        tmp_path, capsys, name="big", **{"--s": "70", "--r": "7", "--n": "8"}
    )
    code, stdout, err = run(
        capsys, "lqr", str(gen / "model.json"), "--r", "7",
        "--out", str(tmp_path / "lqr"),
    )
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["J_hat"] >= payload["J_star"] * (1.0 - 1e-9) > 0.0


def test_experiment_cli(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "experiment", "fig4", "--trials", "5", "--out", str(tmp_path)
    )
    assert code == 0
    assert stdout.strip().endswith("fig4.csv")
    assert (tmp_path / "fig4.csv").exists()


@pytest.mark.parametrize("name", ["fig3b", "table2"])
def test_experiment_refuses_fractional_counts(tmp_path, capsys, name):
    # fig3b sweeps mode counts and table2 cluster counts: 10.5 would be
    # run at 10 and labelled 10.5.
    code, _, err = run(
        capsys, "experiment", name, "--grid", "10.5", "--trials", "1", "--out", str(tmp_path)
    )
    assert (code, err.split(":")[0]) == (2, "InputError"), err
    assert not (tmp_path / f"{name}.csv").exists()


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["reduce"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "fig4", "--threads", "2"])
    assert exc.value.code == 2



GOOD_MODEL = {
    "s": 2, "n": 1, "p": 0, "A": [[[0.5]], [[0.2]]], "B": None,
    "T": [[0.5, 0.5], [0.5, 0.5]],
}
MALFORMED_MODELS = {
    "not-json": b"{not json",
    "json-list": b"[1, 2]",
    "not-utf8": b"\xff\xfe\x00garbage",
    "missing-keys": json.dumps({"s": 2}).encode(),
    "infinite-size": json.dumps(GOOD_MODEL).replace('"n": 1', '"n": 1e400').encode(),
    "nan-entry": json.dumps(dict(GOOD_MODEL, A=[[[float("nan")]], [[0.2]]])).encode(),
    "ragged": json.dumps(dict(GOOD_MODEL, A=[[[0.5]], [[0.2, 0.1]]])).encode(),
    "negative-T": json.dumps(dict(GOOD_MODEL, T=[[1.5, -0.5], [0.5, 0.5]])).encode(),
    "wrong-sizes": json.dumps(dict(GOOD_MODEL, s=3)).encode(),
    "fractional-size": json.dumps(dict(GOOD_MODEL, n=1.7)).encode(),
}
MALFORMED_PARTITIONS = {
    "not-utf8": b"\xff\xfe",
    "strings": b'[[1, "a"], [2]]',
    "nested": b"[[[1]], [2]]",
    "bare-numbers": b"[1, 2]",
    "infinite": b"[[1e400], [2]]",
    "fractional": b"[[1.5], [2]]",
}
FLAG_CASES = [
    # (id, argv with a {model} placeholder, exit code, error class)
    ("reduce-r0", ["reduce", "{model}", "--r", "0"], 2, "DimensionMismatch"),
    ("reduce-r-1", ["reduce", "{model}", "--r", "-1"], 2, "DimensionMismatch"),
    ("lqr-r0", ["lqr", "{model}", "--r", "0"], 2, "DimensionMismatch"),
    (
        "reduce-nan-weights",
        ["reduce", "{model}", "--r", "1", "--weights", "nan", "0.5", "0.5"],
        2,
        "BadWeights",
    ),
    ("generate-r0", ["generate", "--s", "4", "--r", "0"], 2, "DimensionMismatch"),
    ("generate-n-1", ["generate", "--s", "4", "--r", "2", "--n", "-1"], 2, "DimensionMismatch"),
    ("generate-p-1", ["generate", "--s", "4", "--r", "2", "--p", "-1"], 2, "DimensionMismatch"),
    (
        "generate-nan-budget",
        ["generate", "--s", "4", "--r", "2", "--eps-a", "nan"],
        2,
        "DimensionMismatch",
    ),
    ("lqr-nan-sigma-w", ["lqr", "{model}", "--r", "1", "--sigma-w", "nan"], 2, "InputError"),
    ("lqr-negative-sigma-w", ["lqr", "{model}", "--r", "1", "--sigma-w", "-1"], 2, "InputError"),
    ("stability-nan-rho", ["stability", "{model}", "--rho", "nan"], 3, "RhoTooSmall"),
    (
        "evaluate-negative-kmeans-eps",
        ["evaluate", "{model}", "--r", "2", "--kmeans-eps", "-3"],
        2,
        "InputError",
    ),
    (
        "evaluate-nan-kmeans-eps",
        ["evaluate", "{model}", "--r", "1", "--kmeans-eps", "nan"],
        2,
        "InputError",
    ),
]
# (id, argv with {model} and {bad} placeholders, bytes of {bad}, exit code, class)
BAD_INPUT = (
    [(name, argv, b"", code, error) for name, argv, code, error in FLAG_CASES]
    + [
        (f"model-{name}-{cmd}", [cmd, "{bad}"] + flags, payload, 2, "InputError")
        for name, payload in MALFORMED_MODELS.items()
        for cmd, flags in (("reduce", ["--r", "1"]), ("stability", []))
    ]
    + [
        (f"partition-{name}", ["evaluate", "{model}", "--partition", "{bad}"], payload, 2, "InputError")
        for name, payload in MALFORMED_PARTITIONS.items()
    ]
)


@pytest.mark.parametrize(
    "argv, payload, code, error",
    [case[1:] for case in BAD_INPUT],
    ids=[case[0] for case in BAD_INPUT],
)
def test_bad_input_exits_with_a_class_name(tmp_path, capsys, argv, payload, code, error):
    # Every bad flag value or file ends in exit 2 or 3 and one
    # "ErrorClass: message" line; an uncaught exception would fail here.
    model, bad = tmp_path / "model.json", tmp_path / "bad.json"
    model.write_text(json.dumps(GOOD_MODEL))
    bad.write_bytes(payload)
    argv = [a.format(model=model, bad=bad) for a in argv]
    got, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert (got, err.split(":")[0]) == (code, error), err
    assert "Traceback" not in err


def test_evaluate_lumpable_on_one_mode(tmp_path, capsys):
    # No non-Perron eigenvalue: gamma1 is an empty sum and the eps_T
    # premise holds vacuously.
    path = tmp_path / "one.json"
    save_model(MjsModel([[[0.5]]], None, [[1.0]]), path)
    code, stdout, err = run(
        capsys, "evaluate", str(path), "--r", "1", "--branch", "lumpable",
        "--out", str(tmp_path / "out"),
    )
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["gamma1"] == 0.0 and payload["applicable"] is True
    assert all(np.isfinite(v) for v in payload.values() if isinstance(v, float))
