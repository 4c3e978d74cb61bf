import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorfill
from factorfill import __version__, read_panel_csv
from factorfill.cli import run
from factorfill.io import read_cov_binary, read_cov_csv
from tests.conftest import corner_missing, make_panel


def _write_panel_file(path, T=30, N=10, r=2, sigma=0.3, seed=12,
                      missing=True, na="NA"):
    panel = make_panel(T, N, r, sigma, seed=seed,
                       missing=corner_missing(T, N, 8, 3) if missing else [])
    lines = [",".join(f"s{i}" for i in range(N))]
    for t in range(T):
        cells = [repr(float(panel.values[t, i])) if panel.mask[t, i] else na
                 for i in range(N)]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return panel


class TestImputeCommand:
    def test_round_trip_keeps_observed_bytes(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        panel = _write_panel_file(src)
        out = tmp_path / "done.csv"
        rc = run(["impute", "--input", str(src), "--r", "2",
                  "--method", "tp+", "--out", str(out)])
        assert rc == 0
        src_lines = src.read_text().splitlines()
        out_lines = out.read_text().splitlines()
        assert out_lines[0] == src_lines[0]
        n_filled = 0
        for t, (a, b) in enumerate(zip(src_lines[1:], out_lines[1:])):
            for i, (ca, cb) in enumerate(zip(a.split(","), b.split(","))):
                if panel.mask[t, i]:
                    assert cb == ca
                else:
                    assert ca == "NA" and cb != "NA"
                    float(cb)
                    n_filled += 1
        assert n_filled == panel.n_missing
        back, _ = read_panel_csv(str(out))
        assert back.is_complete

    def test_no_keep_observed_reformats(self, tmp_path):
        src = tmp_path / "p.csv"
        src.write_text("a,b\n1.50,2\n2.50,3\n4.00,NA\n")
        out = tmp_path / "o.csv"
        rc = run(["impute", "--input", str(src), "--r", "1",
                  "--method", "tp", "--no-keep-observed", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].split(",")[0] == "1.5"

    def test_se_out_written_for_missing_cells_only(self, tmp_path):
        src = tmp_path / "panel.csv"
        panel = _write_panel_file(src)
        out = tmp_path / "done.csv"
        se_out = tmp_path / "se.csv"
        rc = run(["impute", "--input", str(src), "--r", "2",
                  "--method", "tp", "--out", str(out),
                  "--se-out", str(se_out)])
        assert rc == 0
        lines = se_out.read_text().splitlines()
        for t, line in enumerate(lines[1:]):
            for i, cell in enumerate(line.split(",")):
                if panel.mask[t, i]:
                    assert cell == ""
                else:
                    assert float(cell) > 0.0

    def test_em_with_se_out_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        rc = run(["impute", "--input", str(src), "--r", "2", "--method",
                  "em", "--out", str(tmp_path / "o.csv"),
                  "--se-out", str(tmp_path / "se.csv")])
        assert rc == 3
        assert "factorfill:" in capsys.readouterr().err

    def test_custom_na_token(self, tmp_path):
        src = tmp_path / "p.csv"
        src.write_text("a,b\n1.0,miss\n2.0,1.0\n3.0,2.0\n")
        out = tmp_path / "o.csv"
        rc = run(["impute", "--input", str(src), "--r", "1", "--method",
                  "tp", "--na-token", "miss", "--out", str(out)])
        assert rc == 0
        filled, _ = read_panel_csv(str(out))
        assert filled.is_complete

    def test_missing_input_file_is_exit_2(self, tmp_path, capsys):
        rc = run(["impute", "--input", str(tmp_path / "nope.csv"),
                  "--r", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "factorfill:" in capsys.readouterr().err

    def test_unparseable_cell_is_exit_3(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("a,b\n1.0,oops\n2.0,1.0\n")
        rc = run(["impute", "--input", str(src), "--r", "1",
                  "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        capsys.readouterr()


class TestCovCommand:
    def test_same_seed_bitwise_identical(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["cov", "--input", str(src), "--method", "sm+2", "--r", "2",
                "--S", "20", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ma, names = read_cov_csv(str(a))
        assert names == tuple(f"s{i}" for i in range(10))
        assert np.allclose(ma, ma.T)

    def test_binary_format_round_trip(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        out_csv = tmp_path / "c.csv"
        out_bin = tmp_path / "c.bin"
        base = ["cov", "--input", str(src), "--method", "sfa", "--r", "2"]
        assert run(base + ["--out", str(out_csv)]) == 0
        assert run(base + ["--format", "bin", "--out", str(out_bin)]) == 0
        m_csv, _ = read_cov_csv(str(out_csv))
        m_bin = read_cov_binary(str(out_bin))
        assert np.array_equal(m_csv, m_bin)

    def test_pairwise_needs_no_r(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        out = tmp_path / "p.csv"
        assert run(["cov", "--input", str(src), "--method", "pairwise",
                    "--out", str(out)]) == 0
        m, _ = read_cov_csv(str(out))
        assert m.shape == (10, 10)

    def test_stochastic_scheme_requires_seed(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        with pytest.raises(SystemExit) as exc:
            run(["cov", "--input", str(src), "--method", "sm2", "--r", "2",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_sm0_runs_without_seed(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        assert run(["cov", "--input", str(src), "--method", "sm0",
                    "--r", "2", "--out", str(tmp_path / "x.csv")]) == 0

    def test_non_pairwise_requires_r(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        with pytest.raises(SystemExit) as exc:
            run(["cov", "--input", str(src), "--method", "sf",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_standardize_transform_rescales_to_input_units(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        raw_out = tmp_path / "raw.csv"
        std_out = tmp_path / "std.csv"
        base = ["cov", "--input", str(src), "--method", "sm0", "--r", "2"]
        assert run(base + ["--out", str(raw_out)]) == 0
        assert run(base + ["--transform", "standardize",
                           "--out", str(std_out)]) == 0
        m_raw, _ = read_cov_csv(str(raw_out))
        m_std, _ = read_cov_csv(str(std_out))
        # same units, so the diagonals are on the same scale
        assert np.allclose(np.diag(m_std), np.diag(m_raw), rtol=0.5)


class TestRiskCommand:
    def test_json_payload_fields(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src)
        out = tmp_path / "risk.json"
        rc = run(["risk", "--input", str(src), "--method", "sfa+",
                  "--r", "2", "--alpha", "0.9", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["kind"] == "risk_report"
        assert payload["method"] == "SFA_PLUS"
        assert payload["alpha"] == 0.9
        assert payload["incomplete_series"] == ["s7", "s8", "s9"]
        rep = payload["report"]
        assert rep["pvol"] > 0.0
        assert len(rep["variances"]) == 3
        assert len(rep["weights"]) == 10
        assert "truth" not in rep  # incomplete input has no realized truth

    def test_complete_input_attaches_truth(self, tmp_path):
        src = tmp_path / "panel.csv"
        _write_panel_file(src, missing=False)
        out = tmp_path / "risk.json"
        rc = run(["risk", "--input", str(src), "--method", "sm0",
                  "--r", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["incomplete_series"] == []
        assert "truth" in payload["report"]


class TestFavarCommand:
    def test_json_payload(self, tmp_path, rng):
        src = tmp_path / "panel.csv"
        _write_panel_file(src, T=40)
        y = rng.standard_normal(40)
        (tmp_path / "y.csv").write_text(
            "y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
        W = rng.standard_normal((40, 2))
        (tmp_path / "w.csv").write_text(
            "w1,w2\n" + "\n".join(
                f"{repr(float(a))},{repr(float(b))}" for a, b in W) + "\n")
        out = tmp_path / "favar.json"
        rc = run(["favar", "--input", str(src), "--target",
                  str(tmp_path / "y.csv"), "--exog", str(tmp_path / "w.csv"),
                  "--r", "2", "--h", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "favar"
        assert payload["h"] == 1 and payload["r"] == 2 and payload["q"] == 2
        assert payload["T_used"] == 39
        assert len(payload["delta"]) == 4
        assert payload["alpha"] == payload["delta"][:2]
        assert payload["beta"] == payload["delta"][2:]
        assert len(payload["se"]) == 4
        assert np.array(payload["cov"]).shape == (4, 4)

    def test_target_with_missing_cells_rejected(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        _write_panel_file(src, T=20)
        (tmp_path / "y.csv").write_text(
            "y\n" + "\n".join(["1.0"] * 19 + ["NA"]) + "\n")
        rc = run(["favar", "--input", str(src), "--target",
                  str(tmp_path / "y.csv"), "--r", "2",
                  "--out", str(tmp_path / "f.json")])
        assert rc == 3
        capsys.readouterr()


class TestSimulateCommand:
    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "table1-case1", "--reps", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_thread_count_invariant_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = ["simulate", "--preset", "table4", "--reps", "2",
                "--seed", "5"]
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        text1 = capsys.readouterr().out
        assert run(base + ["--threads", "3", "--out", str(out2)]) == 0
        text2 = capsys.readouterr().out
        assert text1 == text2
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("meta"), b.pop("meta")
        assert a == b
        assert a["kind"] == "fullrank_check"
        assert "kind: fullrank_check" in text1

    def test_single_replication_writes_valid_json(self, tmp_path, capsys):
        # one sample has no sd; it must reach the JSON as null, not NaN
        out = tmp_path / "r.json"
        rc = run(["simulate", "--preset", "table2", "--reps", "1",
                  "--seed", "1", "--threads", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["reps_requested"] == 1
        stats = payload["results"]["stats"]
        assert all(st["sd"] is None for per_pt in stats.values()
                   for st in per_pt.values())
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_is_validation_error(self, reps, tmp_path,
                                                  capsys):
        out = tmp_path / "r.json"
        rc = run(["simulate", "--preset", "table1-case1", "--reps", reps,
                  "--seed", "1", "--threads", "1", "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "reps" in capsys.readouterr().err

    def test_unknown_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "tableX", "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTopLevel:
    def test_imports_need_numpy_only(self):
        # One BLAS in the process: neither scipy (a second bundled
        # OpenBLAS) nor numba may be pulled in by the package or the CLI.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(factorfill.__file__).parents[1]))
        code = ("import sys, factorfill, factorfill.cli; "
                "print(sorted(m for m in ('scipy', 'numba') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert f"factorfill {__version__}" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("impute", "cov", "risk", "favar", "simulate"):
            assert cmd in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
        capsys.readouterr()
