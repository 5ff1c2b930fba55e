import json
from functools import wraps
from inspect import signature

import pytest

from qtkostka import cli
from qtkostka.battery import run_battery
from qtkostka.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_macdonald_latex(capsys):
    code, out, err = run(capsys, "macdonald", "--mu", "2,1", "--format", "latex")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "K_{(3),(2,1)} &= t \\\\",
        "K_{(2,1),(2,1)} &= 1 + qt \\\\",
        "K_{(1,1,1),(2,1)} &= q \\\\",
    ]


def test_macdonald_json(capsys):
    code, out, _ = run(capsys, "macdonald", "--mu", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == [1, 1, 1]
    terms = {tuple(t["lambda"]): t["coeff"] for t in data["expansion"]["terms"]}
    assert terms[(1, 1, 1)] == [[0, 0, "1"]]
    assert terms[(3,)] == [[0, 3, "1"]]


def test_unsupported_shape_exits_2(capsys):
    code, out, err = run(capsys, "macdonald", "--mu", "3,3,2")
    assert code == 2 and out == ""
    assert "(3,3,2)" in err


def test_empty_partition_exits_1(capsys):
    code, _, err = run(capsys, "macdonald", "--mu", "")
    assert code == 1
    assert "empty partition" in err


def test_kostka_csv(capsys):
    code, out, _ = run(capsys, "kostka", "--lam", "2,1", "--mu", "2,1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["q_power,t_power,coefficient", "0,0,1", "1,1,1"]


def test_kostka_json(capsys):
    code, out, _ = run(capsys, "kostka", "--lam", "1,1,1", "--mu", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {"lambda": [1, 1, 1], "mu": [3], "coefficient": [[3, 0, "1"]]}


def test_kostka_size_mismatch(capsys):
    # the library's refusal, word for word
    code, out, err = run(capsys, "kostka", "--lam", "2,1", "--mu", "2")
    assert code == 1 and out == ""
    assert err == "error: size mismatch: |(2, 1)| != |(2,)|\n"


def test_kostka_checks_the_shape_before_the_size(capsys):
    code, _, err = run(capsys, "kostka", "--lam", "3", "--mu", "3,3,2")
    assert code == 2
    assert "(3,3,2)" in err


def test_hl(capsys):
    code, out, _ = run(capsys, "hl", "--mu", "2,1")
    assert code == 0
    data = json.loads(out)
    terms = {tuple(t["lambda"]): t["coeff"] for t in data["expansion"]["terms"]}
    assert terms == {(3,): [[0, 1, "1"]], (2, 1): [[0, 0, "1"]]}


def test_charge(capsys):
    code, out, _ = run(capsys, "charge", "--word", "7,3,4,6,2,2,3,5,1,1,1,2,4,8")
    assert code == 0 and out == "9\n"
    code, out, _ = run(capsys, "charge", "--word", "12")
    assert code == 0 and out == "1\n"


def test_charge_rejects_bad_word(capsys):
    code, _, err = run(capsys, "charge", "--word", "1,0,2")
    assert code == 1
    assert "positive" in err


def test_stats(capsys):
    code, out, _ = run(capsys, "stats", "--mu", "2,1", "--tableau", "1,3/2")
    assert code == 0 and out == "a=1 b=1\n"


def test_type(capsys):
    code, out, _ = run(capsys, "type", "--mu", "2,2,2", "--tableau", "1,4,5/2,6/3")
    assert code == 0 and out == "V,V,H\n"


def test_type_prints_the_head(capsys):
    # the full type, as unimodal names its classes
    code, out, _ = run(capsys, "type", "--mu", "4,1", "--tableau", "1,3,4/2/5")
    assert code == 0 and out == "(1,3,4/2)|S\n"
    code, out, _ = run(capsys, "type", "--mu", "4,1", "--tableau", "1,2,3,4/5")
    assert code == 0 and out == "(1,2,3,4)|S\n"


def test_unimodal_printed_profile(capsys):
    code, out, _ = run(capsys, "unimodal", "--mu", "3,1,1,1")
    assert code == 0
    assert out.splitlines() == [
        "(1,2,3)|S,S,S 1,2,3,4,2,1,1 unimodal",
        "(1,3/2)|S,S,S 2,4,6,5,4,2,1 unimodal",
        "(1,2/3)|S,S,S 1,2,4,5,6,4,2 unimodal",
        "(1/2/3)|S,S,S 1,1,2,4,3,2,1 unimodal",
    ]
    code, out, _ = run(capsys, "unimodal", "--mu", "2")
    assert code == 0
    assert out.splitlines() == ["H 1 unimodal", "V 1 unimodal"]
    code, out, _ = run(capsys, "unimodal", "--mu", "4,1,1")
    assert code == 0
    assert len(out.splitlines()) == 10


def test_unimodal_unsupported(capsys):
    code, _, err = run(capsys, "unimodal", "--mu", "3,3,2")
    assert code == 2
    assert "(3,3,2)" in err


def test_verify_bounds(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "12")
    assert code == 1 and "max_n <= 8" in err
    code, _, err = run(capsys, "verify", "--max-n", "4", "--oracle-degree", "9")
    assert code == 1 and "oracle_degree <= 6" in err


@pytest.mark.parametrize("max_n", ["-1", "0"])
def test_verify_with_no_checks_fails(capsys, max_n):
    # run_battery refuses the arguments before any check runs
    code, out, err = run(capsys, "verify", "--max-n", max_n)
    assert code == 1 and out == ""
    assert err == f"error: max_n = {max_n} is not an int >= 1\n"


@pytest.mark.parametrize("degree", ["-4", "0"])
def test_verify_refuses_a_nonpositive_oracle_degree(capsys, degree):
    code, out, err = run(capsys, "verify", "--max-n", "2", "--oracle-degree", degree)
    assert code == 1 and out == ""
    assert err == f"error: oracle_degree = {degree} is not an int >= 1\n"


@pytest.mark.parametrize("points", ["0", "-3", "x"])
def test_verify_rejects_nonpositive_points(capsys, points):
    if points == "x":  # not an int: argparse refuses it
        with pytest.raises(SystemExit) as info:
            main(["verify", "--max-n", "2", "--points", points])
        assert info.value.code == 1
        assert "argument --points: invalid int value: 'x'" in capsys.readouterr().err
    else:
        code, out, err = run(capsys, "verify", "--max-n", "2", "--points", points)
        assert code == 1 and out == ""
        assert err == f"error: n_points = {points} is not an int >= 1\n"


def test_verify_passes_only_the_flags_given(capsys, monkeypatch):
    # run_battery holds the one copy of its defaults; no battery runs here
    calls = []

    @wraps(run_battery)  # the handler reads the parameter names from run_battery
    def record(**kwargs):
        calls.append(kwargs)
        return []

    monkeypatch.setattr(cli, "run_battery", record)
    assert main(["verify"]) == 0
    assert main(["verify", "--points", "2"]) == 0
    assert main(["verify", "--max-n", "3", "--oracle-degree", "2", "--seed", "-1"]) == 0
    assert calls == [{}, {"n_points": 2}, {"max_n": 3, "oracle_degree": 2, "seed": -1}]
    defaults = vars(cli._build_parser().parse_args(["verify"]))
    for name in signature(run_battery).parameters:
        assert name in defaults and defaults[name] is None, name


def test_verify_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "2", "--oracle-degree", "2", "--points", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report and all(e["status"] == "pass" for e in report)


def test_verify_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--max-n", "2", "--jobs", "2"])
    assert info.value.code == 1
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_verify_out_file_is_reproducible(capsys, tmp_path):
    args = ["verify", "--max-n", "2", "--oracle-degree", "2", "--points", "1", "--seed", "3"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_bad_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["macdonald"])  # missing --mu
    assert info.value.code == 1
