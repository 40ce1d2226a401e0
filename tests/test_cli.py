import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mjsreduce.cli import _plain, build_parser, main
from mjsreduce.model import MjsModel, save_model
from mjsreduce.synth import SynthConfig, fig4_model, generate


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


def test_reduce_past_the_truth_skips_mr(tmp_path, capsys):
    # Three clusters against a two-cluster truth: the reduction stands,
    # and the rate, which needs an estimate no finer than the truth, is
    # skipped with a note on stderr (it exited 2 with SizeMismatch).
    gen, _ = gen_dir(tmp_path, capsys, **{"--s": "6", "--r": "2"})
    code, stdout, stderr = run(
        capsys, "reduce", str(gen / "model.json"), "--r", "3",
        "--out", str(tmp_path / "red"),
    )
    assert code == 0
    assert "MR:" not in stdout
    assert stdout.strip().endswith("reduction.json")
    assert (tmp_path / "red" / "reduction.json").exists()
    assert stderr.startswith("MR skipped: the estimate has 3 clusters, more than the 2")


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


def test_evaluate_clusters_under_the_given_weights(tmp_path, capsys):
    # evaluate --r clusters with --weights, so it reports the bound of
    # the partition that reduce finds under those weights.
    model, _, _ = generate(SynthConfig(12, 3, 3, 2, eps_A=60, eps_T=60, seed=0))
    path = str(tmp_path / "model.json")
    save_model(model, path)
    flags = ["--weights", "0", "0", "1", "--seed", "0"]
    code, _, err = run(
        capsys, "evaluate", path, "--r", "3", *flags, "--out", str(tmp_path / "direct")
    )
    assert code == 0, err
    code, _, err = run(
        capsys, "reduce", path, "--r", "3", "--branch", "aggregatable", *flags,
        "--out", str(tmp_path / "red"),
    )
    assert code == 0, err
    code, _, err = run(
        capsys, "evaluate", path, "--partition", str(tmp_path / "red" / "reduction.json"),
        *flags, "--out", str(tmp_path / "via"),
    )
    assert code == 0, err
    direct = (tmp_path / "direct" / "evaluate.json").read_text()
    assert direct == (tmp_path / "via" / "evaluate.json").read_text()
    # The default weights cluster differently: eps_A 31.03.
    assert json.loads(direct)["eps_A"] == pytest.approx(39.5348, abs=1e-4)


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


def test_module_run_returns_the_exit_code(tmp_path):
    # `python -m mjsreduce.cli` hands main's code to the shell, as the
    # console script does.
    path = tmp_path / "shaky.json"
    save_model(MjsModel(np.array([[[1.2]]]), None, np.array([[1.0]])), str(path))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "mjsreduce.cli", "stability", str(path), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["is_mss"] is False


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


def test_stability_levels_far_from_the_radius(tmp_path, capsys):
    # Neither a level^k that overflows past k = 1 (g = 0) nor one that
    # underflows where every product of two nilpotent modes vanishes
    # raises.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(GOOD_MODEL))
    nil = tmp_path / "nil.json"
    nil.write_text(NILPOTENT_MODEL)
    for path, flag, level, key, want in [
        (model, "--rho", "1e200", "tau", 1.0),
        (model, "--xi", "1e200", "kappa", 1.0),
        (nil, "--xi", "1e-200", "kappa", 1e200),
    ]:
        code, stdout, err = run(
            capsys, "stability", str(path), flag, level, "--out", str(tmp_path / "out")
        )
        assert code == 0, err
        assert json.loads(stdout)[key] == want


def test_json_outputs_are_strict(tmp_path, capsys):
    # On the one-mode 3 x 3 shift, ||L^2|| / rho^2 = 1e400 leaves the
    # float range, so tau is infinite and not certified; it is written
    # as the string "inf", not as the bare token Infinity that strict
    # parsers refuse.
    shift = tmp_path / "shift.json"
    save_model(MjsModel([np.eye(3, k=1)], None, [[1.0]]), shift)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "stability", str(shift), "--rho=1e-200", "--out", str(out))
    assert code == 0, err

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    with open(out / "stability.json") as fh:
        payload = json.load(fh, parse_constant=refuse)
    assert payload["tau"] == "inf"
    assert payload["tau_certified"] is False
    assert json.loads(stdout, parse_constant=refuse) == payload


def test_stability_tau_does_not_depend_on_the_scale_of_the_modes(tmp_path, capsys):
    # tau of one Jordan block J = [[1, 1], [0, 1]] is that of any multiple
    # of it.  At 2^-300 J the powers of L underflowed below the level's
    # powers, and tau was reported as 2.59, certified at k = 2.
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    keys = ("tau", "tau_argmax_k", "tau_certified")
    got = {}
    for e in (-1, -300):
        path = tmp_path / f"J{e}.json"
        save_model(MjsModel([np.ldexp(J, e)], None, [[1.0]]), path)
        code, stdout, err = run(capsys, "stability", str(path), "--out", str(tmp_path / str(e)))
        assert code == 0, err
        got[e] = [json.loads(stdout)[key] for key in keys]
    assert got[-300] == got[-1]
    assert got[-1][1:] == [64, False]


def test_stability_fig4_golden(tmp_path, capsys):
    # stability.json of fig4_model(), kept under tests/data.
    path = tmp_path / "fig4.json"
    save_model(fig4_model()[0], str(path))
    code, stdout, err = run(capsys, "stability", str(path), "--out", str(tmp_path / "out"))
    assert code == 0, err
    got = json.loads(stdout)
    golden = pathlib.Path(__file__).parent / "data" / "stability_fig4.json"
    want = json.loads(golden.read_text())
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


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


def test_lqr_cli_refuses_a_settled_gain_that_does_not_stabilize(tmp_path, capsys):
    # Only the second state is driven, and the first doubles each step:
    # the gain settles while the values grow, and the solve raises.
    path = tmp_path / "model.json"
    save_model(MjsModel(np.array([np.diag([2.0, 0.5])]), [[[0.0], [1.0]]], [[1.0]]), path)
    code, _, err = run(capsys, "lqr", str(path), "--r", "1", "--out", str(tmp_path / "lqr"))
    assert (code, err.split(":")[0]) == (3, "Diverged"), err


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


def test_experiment_fig4_refuses_a_grid(tmp_path, capsys):
    # fig4 has no sweep, and its config digest would not record one.
    code, _, err = run(
        capsys, "experiment", "fig4", "--grid", "1", "2", "--trials", "1", "--out", str(tmp_path)
    )
    assert (code, err.split(":")[0]) == (2, "InputError"), err
    assert not (tmp_path / "fig4.csv").exists()


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


# Each subcommand's options, without -h: a flag its command never reads
# would show up here.
SUBCOMMAND_OPTIONS = {
    "generate": {"--out", "--seed", "--s", "--r", "--n", "--p", "--eps-a", "--eps-b", "--eps-t", "--branch"},
    "reduce": {"--out", "--seed", "--r", "--branch", "--weights", "--restarts", "--pi-weighted"},
    "evaluate": {"--out", "--seed", "--partition", "--r", "--branch", "--kmeans-eps", "--weights"},
    "stability": {"--out", "--rho", "--xi"},
    "lqr": {"--out", "--seed", "--r", "--sigma-w", "--branch"},
    "experiment": {"--out", "--seed", "--trials", "--grid", "--full"},
}


def test_each_subcommand_has_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in cmd._actions for o in a.option_strings} - {"-h", "--help"}
        for name, cmd in sub.choices.items()
    }
    assert got == SUBCOMMAND_OPTIONS
    assert build_parser().parse_args(["experiment", "fig4", "--full"]).full is True
    assert build_parser().parse_args(["experiment", "fig4"]).full is False


@pytest.mark.parametrize(
    "argv",
    [["stability", "m.json", "--full"], ["stability", "m.json", "--seed", "1"], ["reduce", "m.json", "--r", "2", "--full"]],
    ids=["stability-full", "stability-seed", "reduce-full"],
)
def test_an_option_the_command_never_reads_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
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
    # Rows that sum to 1 within 1e-9, but no entry of a chain is negative.
    "tiny-negative-T": json.dumps(dict(GOOD_MODEL, T=[[1 + 1e-12, -1e-12], [0.5, 0.5]])).encode(),
    "wrong-sizes": json.dumps(dict(GOOD_MODEL, s=3)).encode(),
    "fractional-size": json.dumps(dict(GOOD_MODEL, n=1.7)).encode(),
}
# A_1 = [[0, 1], [0, 0]], A_2 = [[0, .5], [0, 0]]: every product of two
# modes vanishes, so rho_aug = JSR = 0 and any positive level passes.
NILPOTENT_MODEL = json.dumps({
    "s": 2, "n": 2, "p": 0, "A": [[[0, 1], [0, 0]], [[0, 0.5], [0, 0]]], "B": None,
    "T": [[0.5, 0.5], [0.5, 0.5]],
})
# The identity chain never mixes, so it has no stationary law.
NON_ERGODIC_MODEL = json.dumps(dict(GOOD_MODEL, T=[[1.0, 0.0], [0.0, 1.0]])).encode()
# One mode entry of 1e50 or 1e160: powers of L, or its krons, and the
# mode products leave the float range.
OVERFLOW_MODELS = {
    f"{big:g}": json.dumps({
        "s": 2, "n": 2, "p": 0, "A": [[[big, 0.3], [0.1, 0.2]], [[0.5, 0], [0.2, 0.4]]],
        "B": None, "T": [[0.5, 0.5], [0.5, 0.5]],
    }).encode()
    for big in (1e50, 1e160)
}
MALFORMED_PARTITIONS = {
    "not-utf8": b"\xff\xfe",
    "strings": b'[[1, "a"], [2]]',
    "nested": b"[[[1]], [2]]",
    "bare-numbers": b"[1, 2]",
    "infinite": b"[[1e400], [2]]",
    "nan": b"[[NaN], [2]]",
    "fractional": b"[[1.5], [2]]",
    "boolean": b"[[true], [2]]",
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
    (
        "generate-n-0",
        ["generate", "--s", "4", "--r", "2", "--n", "0", "--p", "0"],
        2,
        "DimensionMismatch",
    ),
    ("generate-p-1", ["generate", "--s", "4", "--r", "2", "--p", "-1"], 2, "DimensionMismatch"),
    (
        "generate-nan-budget",
        ["generate", "--s", "4", "--r", "2", "--eps-a", "nan"],
        2,
        "DimensionMismatch",
    ),
    ("lqr-nan-sigma-w", ["lqr", "{model}", "--r", "1", "--sigma-w", "nan"], 2, "InputError"),
    ("lqr-negative-sigma-w", ["lqr", "{model}", "--r", "1", "--sigma-w", "-1"], 2, "InputError"),
    ("lqr-sigma-w-square-overflows", ["lqr", "{model}", "--r", "1", "--sigma-w", "1e200"], 2, "InputError"),
    ("stability-nan-rho", ["stability", "{model}", "--rho", "nan"], 3, "RhoTooSmall"),
    (
        "evaluate-negative-kmeans-eps",
        ["evaluate", "{model}", "--r", "2", "--kmeans-eps", "-3"],
        2,
        "InputError",
    ),
    (
        "evaluate-inf-kmeans-eps",
        ["evaluate", "{model}", "--r", "2", "--kmeans-eps", "inf"],
        2,
        "InputError",
    ),
    ("reduce-zero-restarts", ["reduce", "{model}", "--r", "2", "--restarts", "0"], 2, "DimensionMismatch"),
    # numpy refuses a negative seed with a bare ValueError.
    ("generate-seed-1", ["generate", "--s", "4", "--r", "2", "--seed", "-1"], 2, "DimensionMismatch"),
    ("reduce-seed-1", ["reduce", "{model}", "--r", "2", "--seed", "-1"], 2, "DimensionMismatch"),
    ("evaluate-seed-1", ["evaluate", "{model}", "--r", "2", "--seed", "-1"], 2, "DimensionMismatch"),
    ("evaluate-r0", ["evaluate", "{model}", "--r", "0"], 2, "DimensionMismatch"),
    ("lqr-seed-1", ["lqr", "{model}", "--r", "2", "--seed", "-1"], 2, "DimensionMismatch"),
    ("experiment-seed-1", ["experiment", "fig4", "--seed", "-1"], 2, "DimensionMismatch"),
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
    + [
        # A valid partition and --r: neither may silently win.
        ("evaluate-partition-and-r", ["evaluate", "{model}", "--partition", "{bad}", "--r", "2"],
         b"[[1], [2]]", 2, "InputError"),
    ]
    + [
        (f"nilpotent{flag}={level}", ["stability", "{bad}", f"{flag}={level}"],
         NILPOTENT_MODEL.encode(), 3, error)
        for flag, error in (("--rho", "RhoTooSmall"), ("--xi", "XiTooSmall"))
        for level in ("0", "-1e-13")
    ]
    + [
        (f"overflow-{name}", ["stability", "{bad}"], payload, 3, "DegenerateInput")
        for name, payload in OVERFLOW_MODELS.items()
    ]
    + [
        # The flags are checked before the lumpable branch finds that the
        # chain has no stationary law.
        (f"non-ergodic-lumpable-{name}", ["reduce", "{bad}", "--branch", "lumpable"] + flags,
         NON_ERGODIC_MODEL, code, error)
        for name, flags, code, error in (
            ("restarts0", ["--r", "1", "--restarts", "0"], 2, "DimensionMismatch"),
            ("valid-flags", ["--r", "1"], 3, "NotErgodic"),
        )
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


@pytest.mark.parametrize("payload", ['{"partition": 3}', '"[[1], [2]]"', '{"clusters": [[1], [2]]}'])
def test_evaluate_refuses_a_partition_that_is_not_a_list(tmp_path, capsys, payload):
    model, part = tmp_path / "model.json", tmp_path / "partition.json"
    model.write_text(json.dumps(GOOD_MODEL))
    part.write_text(payload)
    code, _, err = run(capsys, "evaluate", str(model), "--partition", str(part))
    assert code == 2 and err.startswith("InputError:") and "expected a list" in err, err


def test_json_payloads_take_numpy_values():
    payload = {"a": np.array([1.0, np.inf]), "b": np.float64(-np.inf), "c": (np.int64(3), np.nan)}
    plain = _plain(payload)
    assert plain == {"a": [1.0, "inf"], "b": "-inf", "c": [3, "nan"]}
    assert type(plain["c"][0]) is int


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


# The Riccati values of lqr overflow to NaN, which passed the
# divergence cap, and the gain change's SVD raised LinAlgError.
RICCATI_NAN = MjsModel([[[1e160]]], [[[1.0]]], [[1.0]])
# The closed-loop values overflow, inf <= inf passed their stop test,
# and the witness's eigvalsh raised LinAlgError.
VALUES_INF = MjsModel(1e300 * np.eye(3)[None], None, [[1.0]])
# sigma_r^2 of the averaged features underflows to 0, and mr_bound
# divided by it.
SIGMA_UNDERFLOW = MjsModel(
    np.array([np.diag([1e-170, 2e-170])] * 2 + [np.diag([3e-170, 1e-170])] * 2),
    np.zeros((4, 2, 1)),
    np.full((4, 4), 0.25),
)


@st.composite
def scaled_models(draw):
    """A model with s, n <= 3 and p <= 2, A and B scaled by powers of
    ten across the float range, a random chain, and a cluster count."""
    s, n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((s, n, n)) * 10.0 ** draw(st.integers(-300, 300))
    B = rng.standard_normal((s, n, p)) * 10.0 ** draw(st.integers(-300, 300))
    T = rng.dirichlet(np.ones(s), size=s)
    if draw(st.booleans()):
        T[rng.random((s, s)) < 0.4] = 0.0
        T[np.arange(s), rng.integers(0, s, size=s)] += 0.5
        T /= T.sum(axis=1, keepdims=True)
    return MjsModel(A, B, T), draw(st.integers(1, s))


def exit_codes(model, r):
    """(argv, exit code, stderr) of reduce, evaluate on both branches,
    stability and lqr on model, with r clusters where asked."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "model.json")
        save_model(model, path)
        runs = []
        for argv in (
            ["reduce", path, "--r", str(r)],
            ["evaluate", path, "--r", str(r), "--branch", "aggregatable"],
            ["evaluate", path, "--r", str(r), "--branch", "lumpable"],
            ["stability", path],
            ["lqr", path, "--r", str(r)],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--out", out])
            runs.append((argv[0], code, err.getvalue()))
        return runs


@settings(max_examples=100, deadline=None)
@example(case=(RICCATI_NAN, 1))
@example(case=(VALUES_INF, 1))
@example(case=(SIGMA_UNDERFLOW, 2))
@given(case=scaled_models())
def test_no_command_ends_in_a_traceback(case):
    # Every model the constructor takes gets an exit code from each
    # command, 0, 1 (stability only), 2 or 3, and never an exception;
    # numpy's overflow warnings in the package are errors here too.
    for command, code, err in exit_codes(*case):
        assert code in ((0, 1, 2, 3) if command == "stability" else (0, 2, 3)), (command, err)


@pytest.mark.parametrize(
    "model, r, command, code, error",
    [
        (RICCATI_NAN, 1, "lqr", 3, "Diverged"),
        (VALUES_INF, 1, "lqr", 3, "DegenerateInput"),
        (SIGMA_UNDERFLOW, 2, "evaluate", 0, ""),
    ],
)
def test_values_past_the_float_range_end_in_a_named_error(model, r, command, code, error):
    got = [(c, err.split(":")[0]) for name, c, err in exit_codes(model, r) if name == command]
    assert got[0] == (code, error)
