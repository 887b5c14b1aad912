import hashlib
import json
import math
import os

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest

from shorttime import cli


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


COS = {"expr": "2 + cos(x)"}


class TestValidateCommand:
    def test_passing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "scan_range": [-20, 20], "epsilon": 0.5,
        })
        code, manifest = run(capsys, "validate", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["command"] == "validate"
        assert manifest["passed"] is True
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["f_min"] == pytest.approx(1.0, abs=1e-4)

    def test_failing_drift_still_reports(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "x"}, "scan_range": [-5, 5], "epsilon": 0.5,
        })
        code, manifest = run(capsys, "validate", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["passed"] is False


class TestFlowCommand:
    def test_constant_drift(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "t": 0.25, "x_values": [0.0, 1.0],
        })
        code, manifest = run(capsys, "flow", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "flow.csv").read_text().strip().splitlines()
        assert rows[0] == "x,flow"
        got = [float(r.split(",")[1]) for r in rows[1:]]
        assert got == pytest.approx([0.5, 1.5])

    def test_huge_x_is_domain_error(self, tmp_path, capsys):
        # the quadrature budget turns a runaway integral into a typed error
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "t": 0.1, "x_values": [0.0, 1e8],
        })
        code, payload = run(capsys, "flow", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert payload["error"]["module"] == "lamperti"

    def test_epsilon_gate_blocks_bad_drift(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "x"}, "t": 0.1, "x_values": [1.0],
            "epsilon": 0.5, "scan_range": [-5, 5],
        })
        code, payload = run(capsys, "flow", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"


class TestDensityCommand:
    def test_all_kinds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "x_prime": 0.0, "kind": "all",
            "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 801},
        })
        code, manifest = run(capsys, "density", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        header = (tmp_path / "density.csv").read_text().splitlines()[0]
        assert header == "x,girsanov,euler_maruyama,backward_euler,haken"
        assert abs(manifest["mass_defect"]["girsanov"]) <= 1e-8
        assert manifest["mass_defect"]["backward_euler"] != 0.0

    def test_marginal_law(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "kind": "girsanov",
            "law": {"atoms": [[0.0, 0.5], [0.5, 0.5]]},
            "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 901},
        })
        code, _ = run(capsys, "density", "--config", cfg,
                      "--out-dir", str(tmp_path))
        assert code == 0
        data = np.loadtxt(tmp_path / "density.csv", delimiter=",",
                          skiprows=1)
        assert trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0,
                                                                 abs=1e-6)

    def test_narrow_grid_is_domain_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "x_prime": 0.0,
            "grid": {"x_min": -0.2, "x_max": 0.8, "n_points": 101},
        })
        code, payload = run(capsys, "density", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"


class TestErrorAndRateCommands:
    def test_girsanov_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "p_values": [1.0, 2.0],
            "mc": {"n_paths": 400, "n_steps": 32, "base_seed": 7},
        })
        code, manifest = run(capsys, "girsanov-error", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["seed"] == 7
        rows = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert rows[0] == "T,p,error_mean,std_error"
        assert len(rows) == 3

    def test_rate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T_grid": [0.2, 0.1, 0.05], "p_values": [1.0],
            "mc": {"n_paths": 400, "n_steps": 64, "base_seed": 7},
        })
        code, manifest = run(capsys, "rate", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        fits = json.loads((tmp_path / "rate_fit.json").read_text())
        assert set(fits["1"]) == {"slope", "intercept", "r_squared"}
        assert manifest["fits"]["1"]["slope"] == fits["1"]["slope"]


    @pytest.mark.parametrize("command,extra", [
        ("girsanov-error", {"T": 0.1}),
        ("rate", {"T_grid": [0.2, 0.1, 0.05]}),
    ])
    def test_invalid_p_fails_before_path_work(self, command, extra, tmp_path,
                                              capsys, monkeypatch):
        from shorttime import girsanov

        calls = []
        real = girsanov.chunk_rng
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a) or real(*a))
        cfg = write_cfg(tmp_path, "c.json", dict(extra, **{
            "drift": COS, "p_values": [1, 0.5],
            "mc": {"n_paths": 400, "n_steps": 32, "base_seed": 7},
        }))
        code, payload = run(capsys, command, "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert "p must be" in payload["error"]["message"]
        assert calls == []


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


_GRID = {"x_min": -5.0, "x_max": 7.0, "n_points": 241}


def _transport_cases(drift, digests):
    """density (all kinds, with and without a law), 8-slice compose for three
    kinds, and CSV samples from both schemes, all on one drift.  digests
    holds one tuple per case, one sha256 per artifact name, in the order
    below."""
    base = {"drift": drift, "T": 0.1, "x_prime": 0.25, "grid": _GRID}
    law = {"atoms": [[0.0, 0.25], [0.5, 0.75]]}
    compose = ("compose.csv", "compose_meta.json")
    cfgs = [
        ("density", dict(base, kind="all"), ("density.csv",)),
        ("density", dict(base, kind="all", law=law), ("density.csv",)),
    ] + [
        ("compose", dict(base, T=0.4, n_slices=8, kind=k), compose)
        for k in ("girsanov", "euler_maruyama", "backward_euler")
    ] + [
        ("sample", dict(base, sample={"n": 3000, "scheme": "crypto",
                                      "seed": 4, "output": "csv"}),
         ("samples.csv",)),
        ("sample", dict(base, sample={"n": 500, "n_steps": 16, "seed": 4,
                                      "scheme": "euler_maruyama_path",
                                      "output": "csv"}), ("samples.csv",)),
    ]
    assert len(digests) == len(cfgs)
    return [(command, cfg, dict(zip(names, digest)))
            for (command, cfg, names), digest in zip(cfgs, digests)]


class TestPinnedArtifacts:
    """Artifact digests taken before the Monte Carlo pass served all p at
    once (the first five cases) and before the kernels, the Girsanov stand-in
    and the Liouville density shared one transport step (the rest); every
    refactor since must reproduce them."""

    CASES = [
        ("girsanov-error", {
            "drift": COS, "T": 0.1, "p_values": [1.0, 1.5, 2.0, 3.0],
            "mc": {"n_paths": 2500, "n_steps": 32, "base_seed": 7},
        }, {"errors.csv":
            "c5f27ec88dbdd2c74fe50d2626447caaf8a6edb4e9672b36fc06ef9a32c9a25b"}),
        ("girsanov-error", {
            "drift": {"builtin": "logistic_floor"}, "T": 0.05,
            "p_values": [2.0, 1.0],
            "mc": {"n_paths": 300, "n_steps": 64, "base_seed": 11},
        }, {"errors.csv":
            "e917c9964d7aea29d5d9ccb0a1b7a00955fb646fd04c6d087877db853e89b378"}),
        ("rate", {
            "drift": COS, "alpha": 1.0, "T_grid": [0.2, 0.1, 0.05],
            "p_values": [1.0, 2.0],
            "mc": {"n_paths": 2100, "n_steps": 32, "base_seed": 5},
        }, {"rate_errors.csv":
            "13e34871ff3dcc110b4af64944b672875b7d4aa14098317a21430692ea2ab616",
            "rate_fit.json":
            "eddef9c883582d1d2367c54dd41f3817c30d2e3e88a3679ed4fd20d99c79cb16"}),
        ("flow", {
            "drift": COS, "t": 0.5,
            "x_values": [-20.0, -7.5, -2.0, -1.0, 0.0, 0.3, 1.0, 2.0, 9.25,
                         20.0, 1000.0],
        }, {"flow.csv":
            "aa8b26acca5cf716acc43e5cbb53f7ec5a1e0100c223ffe26dee6d128b833076"}),
        ("flow", {
            "drift": {"builtin": "logistic_floor"}, "t": -0.25,
            "x_values": [-20.0, -7.5, -2.0, -1.0, 0.0, 0.3, 1.0, 2.0, 9.25,
                         20.0, 1000.0],
        }, {"flow.csv":
            "7df340ce4291f66f73dfe8e6b9e8ad1aa361ed7dbcb3f96e71222eef828b60b2"}),
    ] + _transport_cases(COS, [
        ("a1915f75a5825884f80629344fff28ed16dbea9db71ae39f52ee31d644dedcab",),
        ("3da307861803843f7a763cab614d2dcef98f916cb277788ecf2d84a628a50fb3",),
        ("0818523e0dc3936f1495171e8420ecf9668a183eee61e9080e89690cc72612f2",
         "e4e9698a82e6626a3bc309b4b08d064ed2a6304688fcda5df349b540998e925f"),
        ("916ce65f815838f60c7e0d7c5960abbba9d1403d31828aa24752744b6a57ba97",
         "12f56d7f520ad15fbab4876c381153e866ea9d160134f5772feda0015f5a5ffc"),
        ("50ee0a1d4cd1076ac10786c106fdd0e0270cf048f04937e0ca65afc2ad9ca746",
         "5b582fa54cd4249d628100ad9c42288e8afec4db97b75f4b18c579ac3d742294"),
        ("196922f4df57b7fa8652f20a1718639de53a0fcaec7ce9b4838ef6070e695ef6",),
        ("2af90c9ab1cd082558a309da9fecbd7020586a49cd77de06d4cf375ed6d7975a",),
    ]) + _transport_cases({"expr": "1"}, [
        ("087c2dc6f1a7bac32def3a80ef2de26893b34002719e7de4aeb444adea33f80d",),
        ("2d876f8b646fdedd588a4ffb845e011b906326c23f80804a4c5593f8878e0888",),
        ("b1382a1eb08ed9cb664932314bb33536a069346257764a3d6866b508bc887883",
         "6b00238722de7c7e24af3eedeb53c49688a11e504ab8989c387465a4c08489fb"),
        ("bd694e94955ea6a035f57dec9927cc3b129d71e9ad07838f1713c6be46f21641",
         "d33d1609cdd7a76b7f7b2c337666fd9627c1d04337e384496e41e58311cd5908"),
        ("bd694e94955ea6a035f57dec9927cc3b129d71e9ad07838f1713c6be46f21641",
         "16281fa50066d24bb31f893f284ff777f7f6600ef59fc2bb471fb371a9a9e4c6"),
        ("4e4772521f3bf02ed5fc4d2c46904a20b1e5aab426d84ad7f74db714835d68a9",),
        ("92cf448dad535010d9e8529829cb7e761b3bcf579f99b1d5cf11905f5d28d080",),
    ]) + [
        # F(y)/F(x) would be 0/0 here; the constant drift's ratio is 1
        ("density", {
            "drift": {"expr": "0"}, "T": 0.1, "x_prime": 0.25,
            "kind": "girsanov", "grid": _GRID,
        }, {"density.csv":
            "9b051681e0fadba3131de36d26a21f74c140324d06362c3c192f663cda8f1e51"}),
    ]

    @pytest.mark.parametrize("command,cfg,digests", CASES,
                             ids=[c[0] + str(i) for i, c in enumerate(CASES)])
    def test_digest(self, command, cfg, digests, tmp_path):
        manifest = cli.run_command(command, cfg, str(tmp_path))
        got = {os.path.basename(p): _sha256(p) for p in manifest["outputs"]}
        assert got == digests


class TestComposeAndFp:
    def test_compose_with_oracle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.4, "x_prime": 0.0, "n_slices": 8,
            "kind": "girsanov", "compare_to_oracle": True,
            "n_time_steps": 400,
            "grid": {"x_min": -4.0, "x_max": 6.0, "n_points": 1201},
        })
        code, manifest = run(capsys, "compose", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["mass"] == pytest.approx(1.0, abs=1e-5)
        assert 0.0 < manifest["distance_to_oracle"] < 0.2

    def test_fp_solve(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "0"}, "T": 0.5, "x_prime": 0.0,
            "n_time_steps": 500,
            "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 1001},
        })
        code, manifest = run(capsys, "fp-solve", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["mass"] == pytest.approx(1.0, abs=1e-8)
        data = np.loadtxt(tmp_path / "fp.csv", delimiter=",", skiprows=1)
        peak = data[np.argmax(data[:, 1])]
        assert peak[0] == pytest.approx(0.0, abs=0.02)
        assert peak[1] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-3)


class TestSampleCommand:
    def test_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "x_prime": 0.0, "seed": 5,
            "sample": {"n": 5000, "scheme": "crypto"},
        })
        code, manifest = run(capsys, "sample", "--config", cfg,
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest["ks_vs_kernel"] <= 0.03
        summary = json.loads((tmp_path / "sample_summary.json").read_text())
        assert summary["ks_vs_kernel"] == manifest["ks_vs_kernel"]

    def test_csv_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "T": 0.25, "x_prime": 0.0, "seed": 5,
            "sample": {"n": 50, "scheme": "crypto", "output": "csv"},
        })
        code, _ = run(capsys, "sample", "--config", cfg,
                      "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert rows[0] == "value"
        assert len(rows) == 51

    def test_unknown_scheme(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "x_prime": 0.0,
            "sample": {"n": 10, "scheme": "magic"},
        })
        code, payload = run(capsys, "sample", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 2
        assert payload["error"]["kind"] == "config"


class TestDeterminismAndErrors:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.1, "x_prime": 0.0, "seed": 5,
            "sample": {"n": 2000, "scheme": "crypto"},
        })
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        for d in (d1, d2):
            code, _ = run(capsys, "sample", "--config", cfg,
                          "--out-dir", str(d))
            assert code == 0
        a = (d1 / "sample_summary.json").read_bytes()
        b = (d2 / "sample_summary.json").read_bytes()
        assert a == b

    def test_missing_key_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"drift": COS})
        code, payload = run(capsys, "flow", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 2
        assert payload["error"]["kind"] == "config"

    def test_unreadable_config(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, payload = run(capsys, "flow", "--config", str(bad),
                            "--out-dir", str(tmp_path))
        assert code == 2

    def test_set_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "t": 0.25, "x_values": [0.0],
        })
        code, manifest = run(capsys, "flow", "--config", cfg,
                             "--out-dir", str(tmp_path), "--set", "t=0.5")
        assert code == 0
        assert manifest["t"] == 0.5
        rows = (tmp_path / "flow.csv").read_text().strip().splitlines()
        assert float(rows[1].split(",")[1]) == pytest.approx(1.0)

    def test_unknown_command_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.run_command("transmogrify", {})

    def test_out_dir_from_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "t": 0.25, "x_values": [0.0],
        })
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("SHORTTIME_OUT_DIR", str(env_dir))
        code, _ = run(capsys, "flow", "--config", cfg)
        assert code == 0
        assert (env_dir / "flow.csv").exists()


class TestNonFiniteConfig:
    """json reads NaN, Infinity and 1e999 as floats; each must exit 2 before
    any artifact is written."""

    BASE = {"drift": COS, "T": 0.1, "x_prime": 0.0,
            "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 101}}

    @pytest.mark.parametrize("cfg", [
        dict(BASE, T=math.nan, kind="euler_maruyama"),
        dict(BASE, law={"atoms": [[0.0, math.nan]]}),
        dict(BASE, x_prime=math.nan, kind="girsanov"),
        dict(BASE, T=-math.inf),
    ], ids=["T_nan", "law_nan", "x_prime_nan", "T_minus_inf"])
    def test_config_file(self, cfg, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", cfg)
        code, payload = run(capsys, "density", "--config", path,
                            "--out-dir", str(tmp_path))
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert "non-finite" in payload["error"]["message"]
        assert not (tmp_path / "density.csv").exists()

    def test_overflowing_literal(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.BASE).replace('"T": 0.1', '"T": 1e999'))
        code, payload = run(capsys, "density", "--config", str(path),
                            "--out-dir", str(tmp_path))
        assert code == 2
        assert "1e999" in payload["error"]["message"]

    @pytest.mark.parametrize("override", ["T=Infinity", "T=NaN", "T=1e999"])
    def test_set_override(self, override, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", self.BASE)
        code, payload = run(capsys, "density", "--config", path,
                            "--out-dir", str(tmp_path), "--set", override)
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert not (tmp_path / "density.csv").exists()


class TestConfigNumbers:
    """Every config number goes through one reader: strings, booleans,
    non-finite values, integers past the float range and fractional counts
    exit 2 before any artifact is written."""

    GRID = {"x_min": -4.0, "x_max": 5.0, "n_points": 301}
    MC = {"n_paths": 8, "n_steps": 4, "base_seed": 1}
    BASE = {
        "flow": {"drift": COS, "t": 0.1, "x_values": [0.0, 1.0]},
        "density": {"drift": COS, "T": 0.1, "x_prime": 0.0, "grid": GRID},
        "fp-solve": {"drift": COS, "T": 0.1, "x_prime": 0.0,
                     "n_time_steps": 10, "grid": GRID},
        "compose": {"drift": COS, "T": 0.2, "x_prime": 0.0, "n_slices": 2,
                    "grid": GRID},
        "girsanov-error": {"drift": COS, "T": 0.1, "mc": MC},
        "rate": {"drift": COS, "T_grid": [0.2, 0.1, 0.05], "mc": MC},
        "sample": {"drift": COS, "T": 0.1, "x_prime": 0.0,
                   "sample": {"n": 10, "seed": 1}},
        "validate": {"drift": COS, "scan_range": [-1.0, 1.0],
                     "epsilon": 0.5},
    }
    BIG = "1" + "0" * 399  # an integer JSON reads exactly; no float holds it

    CASES = [  # (command, config changes, --set overrides)
        ("fp-solve", {}, ["T=nan"]),
        ("fp-solve", {}, ['T="inf"']),
        ("density", {}, ["T=nan", "kind=euler_maruyama"]),
        ("density", {}, ["T=" + BIG]),
        ("fp-solve", {}, ["n_time_steps=" + BIG]),
        ("flow", {"x_values": ["nan"]}, []),
        ("fp-solve", {"n_time_steps": True}, []),
        ("flow", {"alpha": "0.5"}, []),
        ("flow", {"x_values": 0.5}, []),
        ("density", {"grid": dict(GRID, n_points=300.5)}, []),
        ("density", {"grid": dict(GRID, x_min="-4")}, []),
        ("density", {"law": {"atoms": [["0", 1.0]]}}, []),
        ("compose", {"n_slices": 2.5}, []),
        ("girsanov-error", {"mc": dict(MC, base_seed=False)}, []),
        ("girsanov-error", {"p_values": [2, "3"]}, []),
        ("rate", {"T_grid": [0.2, 0.1, None]}, []),
        ("sample", {"sample": {"n": 10.5, "seed": 1}}, []),
        ("sample", {"sample": {"n": 10, "seed": True}}, []),
        ("validate", {"scan_range": [-1.0, "1"]}, []),
        ("validate", {"scan_range": [-1.0]}, []),
        ("validate", {"epsilon": "0.5"}, []),
    ]

    def _run(self, capsys, tmp_path, command, changes, overrides):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(self.BASE[command], **changes))
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out-dir", str(out)]
        for item in overrides:
            argv += ["--set", item]
        code, payload = run(capsys, *argv)
        return code, payload, out

    @pytest.mark.parametrize("command,changes,overrides", CASES,
                             ids=[f"{c[0]}{i}" for i, c in enumerate(CASES)])
    def test_refused(self, command, changes, overrides, tmp_path, capsys):
        code, payload, out = self._run(capsys, tmp_path, command, changes,
                                       overrides)
        assert code == 2, payload
        assert payload["error"]["kind"] == "config"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_valid_base_configs_run(self, command, tmp_path, capsys):
        code, payload, out = self._run(capsys, tmp_path, command, {}, [])
        assert code == 0, payload
        assert any(out.iterdir())

    def test_whole_float_counts_are_counts(self, tmp_path, capsys):
        code, manifest, _ = self._run(
            capsys, tmp_path, "fp-solve",
            {"n_time_steps": 10.0, "grid": dict(self.GRID, n_points=301.0)},
            [])
        assert code == 0
        assert manifest["n_time_steps"] == 10
        assert isinstance(manifest["n_time_steps"], int)


class TestDeepDrift:
    @pytest.mark.parametrize("expr", [
        "(" * 200 + "x" + ")" * 200, "cos(" * 200 + "x" + ")" * 200,
        "+".join(["x"] * 500), "-" * 500 + "x",
    ], ids=["parentheses", "calls", "sum", "unary_minus"])
    def test_validate_reports_a_parse_error(self, expr, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": expr}, "scan_range": [-1, 1], "epsilon": 0.5,
        })
        code, payload = run(capsys, "validate", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert payload["error"]["module"] == "drift"
        assert "nested deeper" in payload["error"]["message"]
