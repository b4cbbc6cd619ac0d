import json
from pathlib import Path

import numpy as np
import pytest

from cabletorsion import cli
from cabletorsion.cli import main
from cabletorsion.closed_forms import tau0
from cabletorsion.mayer_vietoris import MayerVietorisError, build_gluing_torus, build_mv_sequence, tor_E
from cabletorsion.representations import rep_build
from cabletorsion.torsion import torsion_equal

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_all_seed7.txt"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_an_compute_matches(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "AN", "--a", "1", "--b", "6",
            "--j", "0", "--xi", "0.3,0.1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == "1"
        assert record["match_up_to_sign"] is True
        assert record["residuals"]["closed_form_rel"] < 1e-6
        assert len(record["engine_torsion"]) == 2

    def test_aa_compute(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "AA", "--a", "1", "--b", "6", "--xi", "0.4,0.2"
        )
        assert code == 0
        assert json.loads(out)["match_up_to_sign"] is True

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "NA", "--a", "1", "--b", "5",
            "--k", "0", "--xi", "0.3,0.1",
        )
        assert code == 2
        assert "2b+1" in err

    def test_missing_index_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "compute", "--family", "AN", "--a", "1", "--b", "6", "--xi", "0.3,0.1"
        )
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = ("compute", "--family", "NN", "--a", "1", "--b", "7",
                "--l", "0", "--m", "0", "--xi", "0.3,0.1")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_malformed_xi_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "AN", "--a", "1", "--b", "6", "--j", "0", "--xi", "0.3;0.1"])
        assert exc.value.code == 2
        assert "expected 're,im', got '0.3;0.1'" in capsys.readouterr().err

    def test_format_is_refused(self, capsys):
        # compute always prints its indented JSON record; --format belongs to sweep
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "AN", "--a", "1", "--b", "6", "--j", "0", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_dump_complex(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "AN", "--a", "1", "--b", "6",
            "--j", "1", "--xi", "0.3,0.1", "--dump-complex",
        )
        record = json.loads(out)
        assert record["mv_sequence"]["dims"] == [0, 1, 1, 1, 3, 2, 1, 2, 1]
        assert record["piece_complexes"]["D"]["dims"] == [3, 6, 3]
        # the lazily built sequence is the one build_mv_sequence gives for the same pieces
        result = tor_E("AN", 1, 6, (1,), 0.3 + 0.1j)
        assert record["mv_sequence"] == build_mv_sequence("AN", result.maps, result.pieces).to_json_dict()
        # S is built on demand for the dump, the same complex build_gluing_torus gives;
        # the value takes Tor(S) as exactly 1
        rep = rep_build("AN", 0.3 + 0.1j, 1, 6, (1,))
        assert record["piece_complexes"]["S"] == build_gluing_torus(rep).complex.to_json_dict()
        assert list(record["piece_complexes"]) == ["C", "D", "S"]
        assert record["tor_S"] == [1.0, 0.0]

    @pytest.mark.parametrize("family, index", [("AN", ["--j", "0"]), ("NA", ["--k", "0"]),
                                               ("NN", ["--l", "0", "--m", "0"])])
    def test_dump_complex_where_the_value_certifies(self, capsys, family, index):
        # at xi = -1+i the float64 walk of la_C misses Ad(mu_C) by more than the commutation
        # tolerance (AN); S now takes the action the certificate proves, so the dump goes through
        code, out, _ = run_cli(capsys, "compute", "--family", family, "--a", "3", "--b", "40", *index,
                               "--xi=-1,1", "--dump-complex")
        assert code == 0
        d1 = np.array(json.loads(out)["piece_complexes"]["S"]["boundaries"][0])
        mu, la = (d1[:, 3 * i:3 * i + 3, 0] + 1j * d1[:, 3 * i:3 * i + 3, 1] + np.eye(3) for i in (0, 1))
        want = np.eye(3) if family == "AN" else np.linalg.matrix_power(mu, -14)  # Ad(mu_C)^-(4a+2)
        assert np.array_equal(la, want) if family == "AN" else np.allclose(la, want, rtol=1e-12, atol=1e-12)

    def test_dump_representation_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "AA", "--a", "1", "--b", "6",
            "--xi", "0.3,0.1", "--dump-representation",
        )
        record = json.loads(out)
        p_matrix = record["representation"]["p"]
        assert len(p_matrix) == 2 and len(p_matrix[0][0]) == 2  # [re, im] pairs
        assert abs(p_matrix[0][1][0]) == 0.0  # diagonal family


class TestSweep:
    def test_na_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "NA", "--a", "2", "--b", "10", "--xi", "0.4,0.2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["family", "a", "b", "index1", "index2", "xi_re", "xi_im",
                          "tor_re", "tor_im", "ref_re", "ref_im", "match"]
        assert len(lines) == 3  # header + k in {0, 1}
        assert all(line.endswith(",1") for line in lines[1:])

    def test_na_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "NA", "--a", "2", "--b", "10", "--xi", "0.4,0.2",
            "--format", "json",
        )
        record = json.loads(out)
        assert code == 0 and record["schema"] == "1" and len(record["rows"]) == 2

    def test_aa_sweep_is_one_row_of_tau0(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "AA", "--a", "1", "--b", "6", "--xi", "0.3,0.1",
            "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 1
        family, a, b, idx1, idx2, xi_re, xi_im, tor_re, tor_im, ref_re, ref_im, match = rows[0]
        assert [family, a, b, idx1, idx2, xi_re, xi_im, match] == ["AA", 1, 6, "", "", 0.3, 0.1, 1]
        assert complex(ref_re, ref_im) == tau0(0.3 + 0.1j, 1, 6) ** -2
        assert torsion_equal(complex(tor_re, tor_im), tau0(0.3 + 0.1j, 1, 6) ** -2, 1e-9)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_index_keeps_its_row(self, capsys, fmt, monkeypatch):
        # AN (3,40) at xi = -1+i passes every index (the commutation guard rejected 0, 38
        # and 39 before the sides were exact); a library error at those three stands in
        def failing(family, a, b, index, xi):
            if index[0] in (0, 38, 39):
                raise MayerVietorisError("peripheral adjoint actions do not commute")
            return tor_E(family, a, b, index, xi)

        monkeypatch.setattr(cli, "tor_E", failing)
        code, out, err = run_cli(
            capsys, "sweep", "--family", "AN", "--a", "3", "--b", "40", "--xi=-1,1", "--format", fmt
        )
        assert code == 1
        rows = json.loads(out)["rows"] if fmt == "json" else [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 40 and all(len(row) == 12 for row in rows)
        empty = None if fmt == "json" else ""
        failed = [int(row[3]) for row in rows if row[7:9] == [empty, empty]]
        assert failed == [0, 38, 39]
        assert all(int(row[11]) == (int(row[3]) not in failed) for row in rows)
        assert all(row[9] not in (None, "") for row in rows)  # the closed form is still written
        assert err.splitlines() == [f"error: index ({j},): peripheral adjoint actions do not commute"
                                    for j in failed]

    def test_every_index_passes_at_the_band_corner(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "AN", "--a", "3", "--b", "40", "--xi=-1,1")
        assert (code, err) == (0, "")
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == ["1"] * 40

    def test_bad_parameters_exit_2_before_any_row(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--family", "AN", "--a", "0", "--b", "40")
        assert (code, out, err) == (2, "", "error: parameters need a >= 1: got a=0\n")

    def test_empty_nn_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "NN", "--a", "1", "--b", "6", "--xi", "0.3,0.1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only


class TestVerify:
    def test_abelian_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "abelian", "--seed", "7")
        assert code == 0
        assert "FAIL" not in out
        assert "seed=7" in out

    def test_torus_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "torus")
        assert code == 0
        assert out.count("PASS") == 50

    def test_all_suites_match_golden_output(self, capsys):
        # `cabletorsion verify --suite all --seed 7`, byte for byte: a change
        # that moves any check, label or count shows up here
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
        assert code == 0
        assert out == GOLDEN_VERIFY.read_text()

    def test_pivot_check_fails_on_deterministic_draws(self, capsys, monkeypatch):
        # draws that all take the deterministic pivots agree on the torsion,
        # so only the b_1 sets can tell that no other choice was tried
        engine = cli.reidemeister_torsion
        monkeypatch.setattr(cli, "reidemeister_torsion", lambda cplx, lifts, rng=None: engine(cplx, lifts))
        code, out, _ = run_cli(capsys, "verify", "--suite", "properties", "--seed", "7")
        assert code == 1
        assert "FAIL  pivot-choice independence (10 draws)" in out.splitlines()
        assert out.count("FAIL") == 1
