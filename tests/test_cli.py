"""End-to-end checks of the command-line entry point."""

import hashlib
import io
import json

import pytest

from rncurves import serialize
from rncurves.cli import EXIT_NO_PATH, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, SEED_ENV, build_parser, main
from rncurves.feasibility import DEFAULTS, RunConfig, build_witness
from rncurves.arrangements import WeightVector


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_emits_verdict_json(capsys):
    code, out = run(capsys, ["classify", "-n", "3", "4,2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 3
    assert data["counts"] == [4, 2]
    assert data["verdict"]["status"] == "NonFeasible"
    assert data["verdict"]["certificate"]["rule"] == "codim2-table"


def test_classify_unknown_has_null_certificate(capsys):
    code, out = run(capsys, ["classify", "-n", "5", "0,5,0,0"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"]["status"] == "Unknown"
    assert data["verdict"]["certificate"] is None


def test_witness_success_roundtrip(capsys):
    code, out = run(capsys, ["witness", "-n", "3", "1,1"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["certificate"]["rule"] == "witness-verified"
    curve = serialize.dec_curve(data["curve"])
    cfg = serialize.dec_config(data["config"])
    assert curve.ambient == 3
    assert cfg.n == 3


def test_witness_without_constructive_path(capsys):
    code, out = run(capsys, ["witness", "-n", "4", "8,0,0"])
    assert code == EXIT_NO_PATH
    assert json.loads(out)["error"] == "no-constructive-path"


def test_witness_without_pattern_bounds_its_block_choices(capsys):
    # 10^7 selections when bounded by the counts, 3,240 when bounded by n // (i+1)
    code, out = run(capsys, ["witness", "-n", "8", "9,9,9,9,9,9,9"])
    assert code == EXIT_NO_PATH
    assert json.loads(out) == {
        "error": "no-constructive-path",
        "detail": "no interpolation or block pattern applies to (9, 9, 9, 9, 9, 9, 9) in P^8",
    }


def test_verify_accepts_and_rejects(tmp_path, capsys):
    w = WeightVector(3, (1, 1))
    curve, cfg, _ = build_witness(w, DEFAULTS)
    other_curve, other_cfg, _ = build_witness(w, RunConfig(seed=5))
    assert serialize.enc_config(other_cfg) != serialize.enc_config(cfg)

    curve_path = tmp_path / "curve.json"
    cfg_path = tmp_path / "config.json"
    curve_path.write_text(serialize.canonical_json(serialize.enc_curve(curve)))
    cfg_path.write_text(serialize.canonical_json(serialize.enc_config(cfg)))

    code, out = run(capsys, ["verify", "--curve", str(curve_path), "--config", str(cfg_path)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verified"] is True
    assert all(c["ok"] for c in report["components"])

    cfg_path.write_text(serialize.canonical_json(serialize.enc_config(other_cfg)))
    code, out = run(capsys, ["verify", "--curve", str(curve_path), "--config", str(cfg_path)])
    assert code == EXIT_VERIFY
    assert json.loads(out)["verified"] is False


def test_verify_rejects_curve_and_config_in_different_spaces(tmp_path, capsys):
    # a twisted cubic in P^3 against a configuration of P^4
    _, out = run(capsys, ["witness", "-n", "3", "3,1"])
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(json.dumps(json.loads(out)["curve"]))
    _, out = run(capsys, ["witness", "-n", "4", "3,2,0"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(json.loads(out)["config"]))

    code, out = run(capsys, ["verify", "--curve", str(curve_path), "--config", str(cfg_path)])
    assert code == EXIT_VERIFY
    report = json.loads(out)
    assert report["verified"] is False
    assert report["curve_is_normal"] is False
    assert len(report["components"]) == 5
    assert all(c["degree"] is None and c["error"] == "ambient mismatch" for c in report["components"])


def test_atlas_csv_and_determinism(capsys):
    code, first = run(capsys, ["atlas", "-n", "3", "--format", "csv"])
    assert code == EXIT_OK
    lines = first.splitlines()
    assert lines[0] == "counts,status,rule,digest"
    assert len(lines) == 29  # header + 28 vectors
    code, second = run(capsys, ["atlas", "-n", "3", "--format", "csv"])
    assert code == EXIT_OK
    assert first == second


def test_atlas_json_summary(capsys):
    code, out = run(capsys, ["atlas", "-n", "3"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 3
    assert sum(data["summary"].values()) == len(data["rows"]) == 28


def test_hilbert_reads_stdin(capsys, monkeypatch):
    payload = {"n": 8, "d": 2, "components": [{"dim": 5}, {"dim": 5}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out = run(capsys, ["hilbert"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["hf"] == 36
    assert data["ideal_dim"] == 9
    assert data["seeds_agreed"] is True
    assert len(data["seeds"]) == 3


def test_hilbert_reads_file(tmp_path, capsys):
    payload = {"n": 3, "d": 2, "components": [{"dim": 1}, {"dim": 1}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, ["hilbert", "--input", str(path)])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["hf"] == 6
    assert data["ideal_dim"] == 4


def test_defect_single_report(capsys):
    code, out = run(capsys, ["defect", "--m", "2", "--s", "4"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["actual"] == 4
    assert data["expected"] == 3
    assert data["defective"] is True
    assert data["seeds_agreed"] is True


def test_defect_sweep_json(capsys):
    code, out = run(capsys, ["defect", "--m", "1"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert [r["actual"] for r in data["reports"]] == [8, 4, 1, 0]
    assert [r["defective"] for r in data["reports"]] == [False, False, True, False]


HILBERT_JOB = {"n": 3, "d": 2, "components": [{"dim": 1}, {"dim": 1}]}

# SHA-256 of the stdout of each command line, fixed with the default seed; a
# change of any rule, seed derivation or rank path that moves a byte shows here.
PINNED_OUTPUTS = {
    ("atlas", "-n", "3", "--format", "csv"): "c2b056c1bdf1b1239c74322c1064193a64531744b756ab95a401de29946b97a8",
    ("atlas", "-n", "4", "--format", "csv"): "9c53ae54c315b7245d702ea6887e9ca0635a1f19d03562a498baa4c822363316",
    ("classify", "-n", "4", "0,5,0"): "db87b6a771f7e3561e502b82826f49ec74b20557aeff86e0021557a8aec90511",
    ("classify", "-n", "4", "3,2,1"): "21394cb65788c1f86444297dc53f9be549b8f1c1fad1364015d7c0f981025a08",
    ("classify", "-n", "4", "4,0,2"): "02c4a1d1ecc4adedbdac8485e9c654b68c94ceb1105d5e6bcb4a95ec04696915",
    ("hilbert",): "0ca94c19a58fb2cca0603e1224d35ddba369657dcaf359a3da8ebb5a7313c8a2",
    ("defect", "--m", "2", "--s", "4"): "d7db4f1dcd13b17d9641b231c113cf2389ffb3df44e03c0512b1f8375efb6b20",
    ("defect", "--m", "1"): "b2578ede0b40dd2a7e452fee06fef27bc2e18946a58057afc8917f7093da87b7",
    # the interpolation path and three block profiles
    ("witness", "-n", "3", "3,1"): "2f1a0edbbf6b34bb58036301d9ddad8206946f3b97f290d03b414d9c9173a693",
    ("witness", "-n", "4", "0,4,0"): "1c8bd0462ac8a5320a1ddeafd70cdd336a1db8c8414b6e5f0e9c920be6bbbf57",
    ("witness", "-n", "5", "5,1,1,0"): "221809e72fcb52b141bfe3ae9ce0c63a5c878cc8f815c5b543a419bff44479f0",
    ("witness", "-n", "6", "2,0,0,0,2"): "596caaa1c59f5cb7321c6e61b11f1548e953821843399b24e7e49bc6a1ecbc76",
}


def test_outputs_are_byte_identical_to_pinned_digests(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)

    def digest(argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HILBERT_JOB)))
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        return hashlib.sha256(out.encode()).hexdigest()

    for argv, want in PINNED_OUTPUTS.items():
        assert digest(list(argv)) == want, argv
    # "modular" names the same exact rank path
    for argv in (("hilbert",), ("defect", "--m", "2", "--s", "4")):
        assert digest(["--backend", "modular", *argv]) == PINNED_OUTPUTS[argv], argv
    with pytest.raises(SystemExit) as exc:
        main(["--backend", "sparse", "hilbert"])
    assert exc.value.code == EXIT_USAGE


def test_atlas_5_is_byte_identical_to_its_pinned_digest(capsys, monkeypatch):
    # 240 rows; every rank-deficient Bézout matrix here is settled by the
    # kernel certificate of linalg.rank, so the digest pins that path too.
    monkeypatch.delenv(SEED_ENV, raising=False)
    code, out = run(capsys, ["atlas", "-n", "5", "--format", "csv"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == "be084713d585ce9ae6b17dce6a6d68a093646c979f7366d7d0ca2f4cd534eb23"


def test_bad_weights_exit_usage(capsys):
    code = main(["classify", "-n", "3", "1,2,3,4"])
    assert code == EXIT_USAGE
    code = main(["classify", "-n", "3", "a,b"])
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "5")
    code, out = run(capsys, ["witness", "-n", "3", "1,1"])
    assert code == EXIT_OK
    seeded = json.loads(out)
    code, out = run(capsys, ["--seed", "5", "witness", "-n", "3", "1,1"])
    assert json.loads(out) == seeded
    monkeypatch.setenv(SEED_ENV, "not-a-number")
    assert main(["classify", "-n", "3", "1,1"]) == EXIT_USAGE
    assert SEED_ENV in capsys.readouterr().err


def test_global_flag_defaults_are_the_run_defaults():
    args = build_parser().parse_args(["classify", "-n", "3", "1,1"])
    assert (args.d_max, args.depth, args.budget) == (
        DEFAULTS.d_max,
        DEFAULTS.projection_depth,
        DEFAULTS.resample_budget,
    )


def test_parser_is_built_once(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert build_parser() is build_parser()
    good = ["classify", "-n", "4", "0,5,0"]
    code, alone = run(capsys, good)
    assert code == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-n", "x", "0,5,0"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert run(capsys, good) == (EXIT_OK, alone)
    # the seed fallback is read on every call, not when the parser is built
    monkeypatch.setenv(SEED_ENV, "5")
    code, seeded = run(capsys, good)
    assert code == EXIT_OK
    assert (code, seeded) == run(capsys, ["--seed", "5", *good])
    assert seeded != alone


def test_lowest_global_flag_values_are_accepted(capsys):
    # 0 switches the Bezout and projection rules off; one attempt is a budget
    code, out = run(capsys, ["--d-max", "0", "--depth", "0", "--budget", "1", "classify", "-n", "3", "4,2"])
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["status"] == "NonFeasible"


# The conic (s^2, st, t^2); each case below breaks one field of it.
CONIC = {
    "ambient_dim": 2,
    "degree": 2,
    "coefficients": [[[int(i == j), 1] for j in range(3)] for i in range(3)],
}


def verify_inputs(tmp_path, curve, config):
    """``--curve`` and ``--config`` arguments naming the inputs written as JSON files."""
    curve_path = tmp_path / "curve.json"
    cfg_path = tmp_path / "config.json"
    curve_path.write_text(json.dumps(curve))
    cfg_path.write_text(json.dumps(config))
    return ["--curve", str(curve_path), "--config", str(cfg_path)]


def assert_usage_exit(argv, capsys):
    """Exit 2 with a message on stderr and nothing on stdout."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


@pytest.mark.parametrize(
    "argv, stdin, curve",
    [
        (["atlas", "-n", "1"], None, None),
        (["atlas", "-n", "-3"], None, None),
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": 3}]}, None),
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": -1}]}, None),
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": 1, "mult": 0}]}, None),
        (["hilbert"], {"n": 3, "d": -1, "components": [{"dim": 1}]}, None),
        (["verify"], None, {**CONIC, "coefficients": 7}),
        (["verify"], None, {**CONIC, "coefficients": [[[1, 0]] * 3] * 3}),
        (["defect", "--m", "-1"], None, None),
        (["--budget", "0", "witness", "-n", "3", "1,1"], None, None),
        (["--d-max", "-1", "classify", "-n", "3", "1,1"], None, None),
        (["--depth", "-1", "classify", "-n", "3", "1,1"], None, None),
        # numeric fields are JSON integers: no truncation, no coercion
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": 1, "mult": 1.5}]}, None),
        (["hilbert"], {"n": 3.0, "d": 2, "components": [{"dim": 1}]}, None),
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": 1, "mult": True}]}, None),
        (["hilbert"], {"n": 3, "d": "2", "components": [{"dim": 1}]}, None),
        (["hilbert"], {"n": 3, "d": 2, "components": [{"dim": 1}], "seed": 0.5}, None),
        # int() would truncate 1.5 back to the conic's 1
        (["verify"], None, {**CONIC, "coefficients": [[[1.5, 1], [0, 1], [0, 1]], *CONIC["coefficients"][1:]]}),
        (["verify"], None, {**CONIC, "ambient_dim": 2.0}),
    ],
)
def test_malformed_input_exits_usage(argv, stdin, curve, tmp_path, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    if curve is not None:
        argv = argv + verify_inputs(tmp_path, curve, {"ambient_dim": 2, "components": []})
    assert_usage_exit(argv, capsys)


# Configurations the conic cannot be verified against.  They are a separate
# case list because a fourth parameter above would rename every case id there.
@pytest.mark.parametrize(
    "component",
    [
        # a fat line: witnesses are defined for reduced configurations only
        {"dim": 1, "mult": 2, "basis": CONIC["coefficients"][:2]},
        # the whole plane: its intersection with the conic is not finite
        {"dim": 2, "basis": CONIC["coefficients"]},
    ],
    ids=["fat", "fills-ambient"],
)
def test_malformed_verify_config_exits_usage(component, tmp_path, capsys):
    config = {"ambient_dim": 2, "components": [component]}
    assert_usage_exit(["verify"] + verify_inputs(tmp_path, CONIC, config), capsys)
