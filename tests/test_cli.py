import json

from bentpds.cli import main
from bentpds.space import prime_space
from bentpds.spectral import PAryFunction, as_vectorial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reproduce_examples_is_deterministic_and_green(capsys):
    code1, out1 = run(capsys, "reproduce-examples")
    code2, out2 = run(capsys, "reproduce-examples")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_match"] and len(report["results"]) == 8


def test_pds_params_reference_quadruple(capsys):
    code, out = run(
        capsys,
        "pds-params", "--theorem", "coset-union", "--p", "7", "--s", "2",
        "--ntotal", "8", "--hsize", "16", "--m1", "1", "--m0", "0", "--eps", "1",
    )
    assert code == 0
    d = json.loads(out)
    assert (d["v"], d["k"], d["lambda"], d["mu"]) == (5764801, 1881600, 614705, 613872)


def test_construct_then_certify_pipeline(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    code, out = run(
        capsys,
        "construct", "--family", "mm-power", "--p", "3", "--m", "2", "--s", "1",
        "--a", "1", "--e", "1", "--out", str(bundle),
    )
    assert code == 0
    emitted = json.loads(out)
    assert emitted["family"] == "mm-power"
    assert json.loads(bundle.read_text()) == emitted

    code, out = run(capsys, "certify", "--file", str(bundle))
    assert code == 0
    report = json.loads(out)
    assert report["certified"] and report["sigma_matches_claim"]
    assert report["sigma"] == {"1": "1", "2": "2"} or report["sigma"] == {"1": 1, "2": 2}


def test_walsh_of_zero_function(tmp_path, capsys):
    sp = prime_space(3, 2)
    f = as_vectorial(PAryFunction(sp, [0] * 9))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(f.to_dict()))
    code, out = run(capsys, "walsh", "--file", str(path))
    assert code == 0
    spec = json.loads(out)["spectrum"]
    assert spec[0]["coeffs"][0] == 9
    assert all(all(c == 0 for c in row["coeffs"]) for row in spec[1:])


def test_classify_subcommand(tmp_path, capsys):
    sp = prime_space(3, 2)
    table = [(sp.split(r)[0] * sp.split(r)[1]) % 3 for r in range(9)]
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(as_vectorial(PAryFunction(sp, table)).to_dict()))
    code, out = run(capsys, "classify", "--file", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["is_bent"] and d["weakly_regular"] and d["epsilon"] == 1


def test_pds_extract_and_verify(tmp_path, capsys):
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "1",
        "--s", "1", "--a", "1", "--e", "1", "--out", str(bundle))
    code, out = run(capsys, "pds-extract", "--file", str(bundle), "--set", "zero")
    assert code == 0
    d = json.loads(out)
    assert d["size"] == 4 and d["members"] == sorted(d["members"])

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--expect", "9,4,1,2")
    assert code == 0 and json.loads(out)["verified"]

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--expect", "9,4,1,0")
    assert code == 1 and not json.loads(out)["verified"]

    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "coset",
                    "--l", "2", "--beta", "1", "--method", "characters",
                    "--expect", "9,2,1,0")
    assert code == 0 and json.loads(out)["verified"]


def test_gaussian_period_subcommand(capsys):
    code, out = run(capsys, "gaussian-period", "--p", "3", "--s", "2", "--t", "2", "--a", "1")
    assert code == 0
    d = json.loads(out)
    assert d["semiprimitive"] and d["match"]
    assert d["bruteforce"]["coeffs"] == [1, 0]


def test_usage_errors_exit_2(tmp_path, capsys):
    # missing required family parameter
    code, out = run(capsys, "construct", "--family", "quad-trace", "--p", "3", "--s", "1")
    assert code == 2 and json.loads(out)["error"] == "usage"
    # malformed function file
    bad = tmp_path / "bad.json"
    bad.write_text("{\"space\": []}")
    code, out = run(capsys, "walsh", "--file", str(bad))
    assert code == 2
    # characters method without expectation
    bundle = tmp_path / "mm.json"
    run(capsys, "construct", "--family", "mm-power", "--p", "3", "--m", "1",
        "--s", "1", "--a", "1", "--e", "1", "--out", str(bundle))
    code, out = run(capsys, "pds-verify", "--file", str(bundle), "--set", "zero",
                    "--method", "characters")
    assert code == 2

    def assert_one_usage_record(*argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert len(out.splitlines()) == 1 and json.loads(out)["error"] == "usage"

    # certify on damaged bundles: an out-of-range table entry, an even
    # characteristic in the space, a non-integer sigma claim
    good = json.loads(bundle.read_text())
    damaged = json.loads(bundle.read_text())
    damaged["function"]["table"][1] = 7
    damaged_p = json.loads(bundle.read_text())
    damaged_p["function"]["space"][0]["p"] = 4
    damaged_sigma = dict(good, sigma={"1": "x", "2": 2})
    for i, d in enumerate([damaged, damaged_p, damaged_sigma]):
        path = tmp_path / f"damaged{i}.json"
        path.write_text(json.dumps(d))
        assert_one_usage_record("certify", "--file", str(path))
    # out-of-range arguments at the library boundary
    assert_one_usage_record("gaussian-period", "--p", "3", "--s", "2", "--t", "2", "--a", "99")
    assert_one_usage_record("gaussian-period", "--p", "4", "--s", "2", "--t", "3", "--a", "1")
    assert_one_usage_record("construct", "--family", "spread", "--p", "3", "--m", "2",
                            "--s", "1", "--labels", "0,0,0,1,1,1,2,2,9")
    assert_one_usage_record("pds-params", "--theorem", "subset", "--p", "3", "--s", "1",
                            "--n", "4", "--size-a", "9", "--eps", "1")


def test_domain_errors_exit_1(capsys):
    code, out = run(capsys, "construct", "--family", "mm-power", "--p", "3",
                    "--m", "2", "--s", "1", "--a", "1", "--e", "2")
    assert code == 1
    d = json.loads(out)
    assert d["error"] == "BadExponent"


def test_construct_output_is_deterministic(capsys):
    args = ["construct", "--family", "spread", "--p", "3", "--m", "2", "--s", "1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
