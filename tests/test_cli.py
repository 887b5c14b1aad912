import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

trapezoid = getattr(np, "trapezoid", None) or np.trapz
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

import shorttime
from shorttime import cli
from shorttime.drift import DriftExpr


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

    def test_overflowing_drift_is_a_domain_error(self, tmp_path, capsys):
        # exp(x) overflows past x = 709.78: exit 1 naming the first scan
        # point past it, and no report holding Infinity
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "exp(x)"}, "scan_range": [0, 1000],
            "epsilon": 0.5,
        })
        code, payload = run(capsys, "validate", "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"] == {
            "kind": "domain", "module": "drift",
            "message": "f, f' or f'' is not finite at x=710.0"}
        assert not (tmp_path / "validate_report.json").exists()


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
        # only JSON true turns the check off (the string "false" is refused
        # in TestConfigNumbers)
        code, _ = run(capsys, "flow", "--config", cfg, "--out-dir",
                      str(tmp_path), "--set", "assume_valid=true",
                      "--set", "reference_point=1.0")
        assert code == 0


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

    @pytest.mark.parametrize("kind", ["all", "girsanov"])
    def test_one_atom_law_is_x_prime(self, kind, tmp_path, capsys):
        # alpha shifts the frame of the law's atoms as it does x_prime's
        base = {"drift": COS, "T": 0.1, "alpha": 0.5, "kind": kind,
                "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 601}}
        got = []
        for name, start in [("law", {"law": {"atoms": [[0.3, 1.0]]}}),
                            ("x_prime", {"x_prime": 0.3})]:
            cfg = write_cfg(tmp_path, name + ".json", dict(base, **start))
            code, _ = run(capsys, "density", "--config", cfg,
                          "--out-dir", str(tmp_path / name))
            assert code == 0
            got.append((tmp_path / name / "density.csv").read_bytes())
        assert got[0] == got[1]

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

    @pytest.mark.parametrize("command,extra,message", [
        ("girsanov-error", {"T": -1.0}, "T must be"),
        ("rate", {"T_grid": [0.1, 0.05, -1.0]}, "T must be"),
    ], ids=["girsanov-error", "rate"])
    def test_invalid_T_fails_before_path_work(self, command, extra, message,
                                              tmp_path, capsys, monkeypatch):
        # every T of the grid is checked before the first chunk is drawn
        from shorttime import girsanov

        calls = []
        real = girsanov.chunk_rng
        monkeypatch.setattr(girsanov, "chunk_rng",
                            lambda *a: calls.append(a) or real(*a))
        cfg = write_cfg(tmp_path, "c.json", dict(extra, **{
            "drift": COS, "p_values": [1, 2],
            "mc": {"n_paths": 400, "n_steps": 32, "base_seed": 7},
        }))
        code, payload = run(capsys, command, "--config", cfg,
                            "--out-dir", str(tmp_path))
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert message in payload["error"]["message"]
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
    refactor since must reproduce them.  The Hermite table for Lambda moved
    their numbers by at most 8.6e-10 (rate2's fit; the flow by 1.4e-10), so
    girsanov-error0/1, rate2, flow3/4, density5/6, compose7 and sample10
    were re-taken with it.  The band-limited Chapman composition moved the
    compose densities by at most 6.7e-16, so compose7/8/9/14/15/16 were
    re-taken with it.  Reading every atom of a law through the command's
    one map moved the law densities by at most 7.8e-16, so density6/13
    were re-taken with it.  One Lambda table per map, grown on a lattice of
    knots fixed by the map, moved their numbers by at most 1.4e-10 (flow3
    at x = -1, where the new flow is 2.6e-13 from the closed form and the
    old one 1.4e-10) and the rest by at most 2e-11 (rate2's fit), so
    girsanov-error0/1, rate2, flow3/4, density5/6, compose7 and sample10
    were re-taken with it.  Writing every kernel as one Gaussian between a
    row centre and a column centre moved the euler_maruyama, backward_euler
    and haken values by at most 4.4e-16 (compose8), so density5/6/12/13
    and compose8/9/15/16 were re-taken with it.

    The pins were taken under numpy's AVX-512 dispatch.  Under
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" 17 of the 22
    move, and so do all three bench first-cycle digests: exp, log, sinh,
    arcsinh and power give other last bits there, and %.17g shows them."""

    CASES = [
        ("girsanov-error", {
            "drift": COS, "T": 0.1, "p_values": [1.0, 1.5, 2.0, 3.0],
            "mc": {"n_paths": 2500, "n_steps": 32, "base_seed": 7},
        }, {"errors.csv":
            "7302d51cd74b80fb5776b854a25e166f66926b3977932e9d4d060ff93bc2f4fd"}),
        ("girsanov-error", {
            "drift": {"builtin": "logistic_floor"}, "T": 0.05,
            "p_values": [2.0, 1.0],
            "mc": {"n_paths": 300, "n_steps": 64, "base_seed": 11},
        }, {"errors.csv":
            "9094f78ef01d6c04ee9d34b564438e3b70639116b2d5677b7abb378769c60387"}),
        ("rate", {
            "drift": COS, "alpha": 1.0, "T_grid": [0.2, 0.1, 0.05],
            "p_values": [1.0, 2.0],
            "mc": {"n_paths": 2100, "n_steps": 32, "base_seed": 5},
        }, {"rate_errors.csv":
            "8115546dc2b54807aa75bdc33e5a226d9e640096736b6c9752cd8dd265d949d1",
            "rate_fit.json":
            "3b9140e85fa6dcbed7142c7381fb18c88a386dea4409c2e9215a140fa24cbc74"}),
        ("flow", {
            "drift": COS, "t": 0.5,
            "x_values": [-20.0, -7.5, -2.0, -1.0, 0.0, 0.3, 1.0, 2.0, 9.25,
                         20.0, 1000.0],
        }, {"flow.csv":
            "4dfcac3b7e33adfa98962de7f7a8b4b059ce51b1523b4ef50e349729c0a91802"}),
        ("flow", {
            "drift": {"builtin": "logistic_floor"}, "t": -0.25,
            "x_values": [-20.0, -7.5, -2.0, -1.0, 0.0, 0.3, 1.0, 2.0, 9.25,
                         20.0, 1000.0],
        }, {"flow.csv":
            "544732718e9219e61fc545ea39ec29e943fb042068a2568e0768cd1abadf5a95"}),
    ] + _transport_cases(COS, [
        ("0ab19e44ec94bce071901771a0567bdbbfe271bd13b9bec3e7f4c40808f9a56f",),
        ("1fcdab95dc7a401a784a08b2c764b96d051d69ff3cc843cde196ef10b827f871",),
        ("f92e62cae5c10c6d4f40e9c66f7fe9f62012595a4f553bb099b2532c2d4a1977",
         "e104fa6124c5e4bca8a4b1e4887a2646f8edefca1e0ab0b144b06fbcc993b19d"),
        ("022dee47d56c66e2cf6ebfa19d133c912670537f8371781826da5caecbbabeba",
         "6b96b1c4d1d7c7379207fcc457cb84203c460a2c192fd78bffc62cc43dad85c1"),
        ("a638bd9e853dd3ff2392d25da0c66eb68e8745b66e52d70ddebbdd3006e04b82",
         "5b582fa54cd4249d628100ad9c42288e8afec4db97b75f4b18c579ac3d742294"),
        ("c17775b0ca97dfecc117a2ae4fcd1917165b4ace4dfd2039a22628289671961e",),
        ("2af90c9ab1cd082558a309da9fecbd7020586a49cd77de06d4cf375ed6d7975a",),
    ]) + _transport_cases({"expr": "1"}, [
        ("ea7be05b0a6776c4d2112de5e1cd1178de1730a36263d26badd76559404bb01b",),
        ("7f25491691b17ba959aec202a6ece5bff4540942c15b7983c6cfdb65de3a43c6",),
        ("39f5693ec9978cb09c8f6be790bd3d17981d6ca9eb163148ed17ae7b9d4e21c0",
         "6b00238722de7c7e24af3eedeb53c49688a11e504ab8989c387465a4c08489fb"),
        ("3fbad8ce2fa3136eab6275141ea606ef25b9724d02a00337b29b5df5063f369a",
         "b63a472a82771ce6edf0000190f77cb276f4a7ba9c275eb3fd791336e9a73f2f"),
        ("39f5693ec9978cb09c8f6be790bd3d17981d6ca9eb163148ed17ae7b9d4e21c0",
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
        # f2_max_abs is the one artifact number that reads F''
        ("validate", {
            "drift": COS, "scan_range": [-20.0, 20.0], "epsilon": 0.5,
            "scan_points": 4001,
        }, {"validate_report.json":
            "be582b27fd2c334804f3a7ed610aa26fdda229033c0bc925f961299aad2eadac"}),
        ("validate", {
            "drift": {"expr": "(2 + cos(x))/(1.5 + sin(x))"},
            "scan_range": [-3.0, 3.0], "epsilon": 0.1, "scan_points": 2001,
        }, {"validate_report.json":
            "44e2ff2605c5a90447427f4b55bf36b7412e16b8237053545c2b67b4522c190e"}),
    ]

    @pytest.mark.parametrize("command,cfg,digests", CASES,
                             ids=[c[0] + str(i) for i, c in enumerate(CASES)])
    def test_digest(self, command, cfg, digests, tmp_path):
        manifest = cli.run_command(command, cfg, str(tmp_path))
        got = {os.path.basename(p): _sha256(p) for p in manifest["outputs"]}
        assert got == digests


class TestDriftOrders:
    """F'' is read by validate alone: every other command asks the drift
    for (F, F') at most."""

    @staticmethod
    def _orders(monkeypatch, tmp_path, command, cfg):
        orders = []
        jets = DriftExpr.jets

        def spy(self, x, order=2):
            orders.append(order)
            return jets(self, x, order)

        monkeypatch.setattr(DriftExpr, "jets", spy)
        cli.run_command(command, cfg, str(tmp_path))
        return orders

    @pytest.mark.parametrize("command,cfg", [
        # a fresh map: the flow grows its Lambda table
        ("flow", {"drift": COS, "t": 0.5, "x_values": [-2.0, 0.0, 9.25]}),
        ("density", {"drift": COS, "T": 0.1, "x_prime": 0.25, "kind": "all",
                     "grid": _GRID}),
        ("compose", {"drift": COS, "T": 0.4, "x_prime": 0.25, "n_slices": 2,
                     "kind": "backward_euler", "grid": _GRID}),
        ("fp-solve", {"drift": COS, "T": 0.2, "x_prime": 0.25,
                      "n_time_steps": 20, "grid": _GRID}),
    ], ids=["flow", "density", "compose", "fp-solve"])
    def test_first_order_at_most(self, monkeypatch, tmp_path, command, cfg):
        orders = self._orders(monkeypatch, tmp_path, command, cfg)
        assert orders and max(orders) <= 1

    def test_validate_reads_second_order(self, monkeypatch, tmp_path):
        cfg = {"drift": COS, "scan_range": [-20.0, 20.0], "epsilon": 0.5}
        assert self._orders(monkeypatch, tmp_path, "validate", cfg) == [2]


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

    def test_compose_refuses_all_kinds(self, tmp_path, capsys):
        # compose runs one kernel; 'all' used to run girsanov alone
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": COS, "T": 0.2, "x_prime": 0.0, "n_slices": 2,
            "grid": {"x_min": -4.0, "x_max": 5.0, "n_points": 301},
        })
        out = tmp_path / "out"
        code, payload = run(capsys, "compose", "--config", cfg,
                            "--out-dir", str(out), "--set", "kind=all")
        assert code == 2
        assert payload["error"]["kind"] == "config"
        assert "'kind'" in payload["error"]["message"]
        assert not out.exists() or not any(out.iterdir())

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

    @pytest.mark.parametrize("x_prime", [100.0, 1e300, -6.6])
    def test_fp_solve_refuses_a_start_off_the_grid(self, x_prime, tmp_path,
                                                   capsys, recwarn):
        # density and compose refuse it too; fp-solve wrote an all-zero
        # density of mass 0, and warned of an overflow at 1e300
        out = tmp_path / "out"
        cfg = os.path.join(_ROOT, "configs", "fp_oracle.json")
        code, payload = run(capsys, "fp-solve", "--config", cfg,
                            "--out-dir", str(out), "--set",
                            f"x_prime={x_prime!r}")
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert payload["error"]["module"] == "evolution"
        assert "off the grid" in payload["error"]["message"]
        assert not out.exists() or not any(out.iterdir())
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("x_prime", [1e300, -1e300])
    @pytest.mark.parametrize("command,config", [
        ("density", "density_all_kernels.json"),
        ("compose", "compose_path_integral.json"),
    ], ids=["density", "compose"])
    def test_a_start_far_off_the_grid_vanishes_quietly(
            self, command, config, x_prime, tmp_path, capsys, recwarn):
        # the kernel is 0 on the whole grid, a domain error; the square of
        # the start's distance overflows to inf, and used to warn so
        out = tmp_path / "out"
        code, payload = run(capsys, command, "--config",
                            os.path.join(_ROOT, "configs", config),
                            "--out-dir", str(out), "--set",
                            f"x_prime={x_prime!r}")
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert "vanished on the whole grid" in payload["error"]["message"]
        assert not out.exists() or not any(out.iterdir())
        assert capsys.readouterr().err == ""
        assert not [w for w in recwarn if w.category is RuntimeWarning]


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

    @pytest.mark.parametrize("scheme", ["crypto", "euler_maruyama_path"])
    def test_one_sample_summary_is_refused(self, scheme, tmp_path, capsys,
                                           monkeypatch):
        # a summary's sample variance needs two samples (one gives NaN, not
        # JSON): a config error before any draw; a CSV of one sample is
        # still written
        def drawn(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli.sampler, "sample_crypto", drawn)
        monkeypatch.setattr(cli.sampler, "sample_em_path", drawn)
        cfg = {"drift": COS, "T": 0.1, "x_prime": 0.0,
               "sample": {"n": 1, "n_steps": 4, "scheme": scheme}}
        code, payload = run(capsys, "sample", "--config",
                            write_cfg(tmp_path, "c.json", cfg),
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert payload["error"]["message"] == (
            "a sample summary needs 'sample.n' of at least 2")
        assert not any((tmp_path / "out").iterdir())
        monkeypatch.undo()
        cfg["sample"]["output"] = "csv"
        code, _ = run(capsys, "sample", "--config",
                      write_cfg(tmp_path, "c.json", cfg),
                      "--out-dir", str(tmp_path / "out"))
        assert code == 0
        rows = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert len(rows) == 2


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


class TestMainErrors:
    """main's own error paths: each ends in one strict JSON line."""

    @staticmethod
    def _error(capsys, *argv):
        code = cli.main(list(argv))
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        return code, _strict_json(lines[0])["error"]

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "c.json", [{"drift": COS}])
        code, error = self._error(capsys, "flow", "--config", cfg,
                                  "--out-dir", str(out))
        assert (code, error) == (2, {"kind": "config", "message":
                                     "config must be a JSON object"})
        assert not out.exists()

    def test_override_without_equals(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "t": 0.25, "x_values": [0.0],
        })
        code, error = self._error(capsys, "flow", "--config", cfg,
                                  "--out-dir", str(out), "--set", "T")
        assert (code, error) == (2, {"kind": "config", "message":
                                     "bad override 'T'; expected K=V"})
        assert not out.exists()

    def test_memory_error_is_a_resource_error(self, tmp_path, capsys,
                                              monkeypatch):
        def exhausted(cfg, out):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "flow", exhausted)
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": "2"}, "t": 0.25, "x_values": [0.0],
        })
        code, error = self._error(capsys, "flow", "--config", cfg,
                                  "--out-dir", str(tmp_path))
        assert (code, error) == (1, {"kind": "resource",
                                     "message": "MemoryError"})

    def test_overflowing_drift_names_a_finite_point(self, tmp_path):
        # F = exp(700 + x): F^2 and F F' overflow where F and 1/F do not.
        # Run as a process: exit 1 naming a finite x, not x=nan, and no
        # overflow warning on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "shorttime.cli", "rate", "--config",
             os.path.join(_ROOT, "configs", "rate_study.json"),
             "--out-dir", str(tmp_path), "--set", 'drift={"expr": "exp(x)"}',
             "--set", "alpha=700", "--set",
             'mc={"n_paths": 64, "n_steps": 16, "base_seed": 1}'],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        message = _strict_json(line)["error"]["message"]
        assert math.isfinite(float(message.split("x=")[1].split()[0]
                                   .rstrip(";")))
        assert not (tmp_path / "rate_fit.json").exists()


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
    """Every config number goes through one reader, and every config
    shape is checked: strings, booleans, non-finite values, integers past
    the float range, fractional counts, sub-objects that are not JSON
    objects, law atoms that are not [location, weight] pairs or no
    probability law, flags that are not JSON booleans and unknown sample
    outputs exit 2 before any artifact is written."""

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
        ("girsanov-error", {}, ['mc="n_paths"']),
        ("sample", {}, ['sample="n"']),
        ("density", {}, ["mc=5"]),
        ("density", {"law": {"atoms": [[0.0]]}}, []),
        ("density", {"law": {"atoms": [[0.0, 0.5, 0.5]]}}, []),
        ("density", {"law": {"atoms": "ab"}}, []),
        ("sample", {"sample": {"n": 10, "seed": 1, "output": "cvs"}}, []),
        ("flow", {}, ['assume_valid="false"']),
        ("compose", {}, ['compare_to_oracle="yes"']),
        ("compose", {"compare_to_oracle": 1}, []),
        ("density", {"law": {"atoms": []}}, []),
        ("density", {"law": {"atoms": [[0.0, 0.7]]}}, []),
        ("rate", {}, ["T_grid=[0.1,0.1,0.1]"]),
        ("validate", {"drift": {"expr": [1.0]}}, []),
        ("flow", {"drift": {"expr": ["x"]}}, []),
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

    @pytest.mark.parametrize("expr", ["2 + x^1e400", "x^(0*1e400)"],
                             ids=["inf", "nan"])
    def test_non_finite_exponent(self, expr, tmp_path):
        # run as a process: a traceback would show on its stderr
        cfg = write_cfg(tmp_path, "c.json", {
            "drift": {"expr": expr}, "scan_range": [-1, 1], "epsilon": 0.5,
        })
        proc = subprocess.run(
            [sys.executable, "-m", "shorttime.cli", "validate", "--config",
             cfg, "--out-dir", str(tmp_path)],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["module"] == "drift"
        assert "exponent must be finite" in error["message"]


def _reference_csv(header, columns):
    """The bytes of the row-wise writer that _write_csv replaced."""
    lines = [",".join(header)] + [",".join(f"{float(v):.17g}" for v in row)
                                  for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    """The columnar writer gives the row-wise writer's bytes."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf,
               -math.inf, math.nan, 2.0, -3.0, 1e16, 0.1, 1.0 / 3.0]

    @staticmethod
    def _written(path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        cli._write_csv(str(path), header, *columns)
        got = path.read_bytes()
        assert got == _reference_csv(header, columns)
        return got

    @pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
    def test_special_values(self, ncols, tmp_path):
        cols = [np.roll(self.SPECIAL, i) for i in range(ncols)]
        got = self._written(tmp_path / "s.csv", cols).decode()
        first = got.splitlines()[1:]
        assert [line.split(",")[0] for line in first] == [
            "-0", "0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "1.0000000000000001e+300", "-1.0000000000000001e+300", "inf",
            "-inf", "nan", "2", "-3", "10000000000000000",
            "0.10000000000000001", "0.33333333333333331"]

    @pytest.mark.parametrize("nrows", [0, 1, 8191, 8192, 8193, 16385])
    @pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
    def test_block_boundaries(self, nrows, ncols, tmp_path):
        # scales in and just past [1e-4, 1e17), where no exponent is written
        rng = np.random.default_rng(nrows * 10 + ncols)
        cols = [rng.standard_normal(nrows) * 10.0 ** rng.integers(-6, 18)
                for _ in range(ncols)]
        got = self._written(tmp_path / "b.csv", cols)
        assert got.count(b"\n") == nrows + 1

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        cli._write_csv(str(path), ["x", "density"], [], np.empty(0))
        assert path.read_bytes() == b"x,density\n"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(table=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    min_side=0, max_side=7)),
           block=hs.integers(1, 4))
    def test_matches_row_writer(self, table, block, tmp_path_factory):
        # a small block makes a few rows cross block boundaries
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        columns = list(table.T)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK", block)
            if columns:
                self._written(path, columns)

    def test_unequal_columns_raise(self, tmp_path):
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError):
            cli._write_csv(str(path), ["a", "b"], [1.0, 2.0], [1.0])
        assert not path.exists()

    # values around the range the writer formats itself, [1e-4, 1e17) after
    # rounding to 17 digits: the range and its ends, short decimals (with
    # trailing zeros to strip), ties at the 17th digit (odd multiples of
    # 2^(k-17) in [10^k, 10^(k+1)) have 18 digits, the last a 5), and any
    # float64 at all
    _VALUES = hs.one_of(
        hs.floats(9e-5, 1.1e17), hs.floats(-1.1e17, -9e-5),
        hs.builds(lambda i, e: i / 10.0 ** e, hs.integers(-10**9, 10**9),
                  hs.integers(0, 12)),
        hs.builds(lambda k, u: math.ldexp(2 * math.floor(
            10.0 ** k * 2.0 ** (16 - k) * (1 + 9 * u)) + 1, k - 17),
                  hs.integers(-4, 14), hs.floats(0, 0.99)),
        hs.floats())

    @settings(max_examples=2000, derandomize=True, deadline=None)
    @given(table=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    min_side=1, max_side=3),
                            elements=_VALUES),
           block=hs.integers(1, 2))
    def test_matches_row_writer_near_the_fast_range(self, table, block,
                                                    tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "near_the_fast_range.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK", block)
            self._written(path, list(table.T))

    @pytest.mark.parametrize("value,text", [
        (123456789012345.625, "123456789012345.62"),
        (123456789012345.875, "123456789012345.88"),
        (-123456789012345.625, "-123456789012345.62"),
        (58.9262542724609375, "58.926254272460938"),
        (0.000833988189697265625, "0.00083398818969726562"),
        (0.00102519989013671875, "0.0010251998901367188"),
    ])
    def test_ties_round_half_even(self, value, text, tmp_path):
        got = self._written(tmp_path / "t.csv", [[value]])
        assert got == f"c0\n{text}\n".encode()

    @staticmethod
    def _powers_of_ten():
        """Each power of ten from 1e-6 to 1e18 and its two nearest float64
        neighbours on each side, of both signs: a 17-digit rounding that
        carried into the next power would show here (none does)."""
        p = np.array([float(f"1e{e}") for e in range(-6, 19)])
        down, up = np.nextafter(p, 0.0), np.nextafter(p, math.inf)
        near = np.concatenate([p, down, np.nextafter(down, 0.0), up,
                               np.nextafter(up, math.inf)])
        return np.concatenate([near, -near])

    def test_powers_of_ten(self, tmp_path):
        values = self._powers_of_ten()
        got = self._written(tmp_path / "p.csv", [values]).decode()
        text = dict(zip(values.tolist(), got.splitlines()[1:]))
        assert text[1e-4] == "0.0001"
        assert text[float(np.nextafter(1e-4, 0.0))] == "9.9999999999999991e-05"
        assert text[1e16] == "10000000000000000"
        assert text[-1e17] == "-1e+17"
        assert text[float(np.nextafter(1e17, 0.0))] == "99999999999999984"

    def test_mixed_rows(self, tmp_path):
        # every block mixes values the writer formats and values it hands
        # to `%`, within a row and within a column
        rng = np.random.default_rng(7)
        n = 20_000
        fast = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 17, n)
        other = rng.choice(self.SPECIAL + [1e-5, -2.5e17, 1e-310], n)
        mixed = np.where(rng.random(n) < 0.5, fast[::-1], other)
        self._written(tmp_path / "m.csv", [fast, other, mixed])

    def test_bytes_do_not_depend_on_the_simd_dispatch(self, tmp_path):
        # a 1e5-row samples.csv written by a child at numpy's default SIMD
        # dispatch and by one limited to AVX2 (the variable names features
        # this CPU may lack; numpy then ignores them)
        rng = np.random.default_rng(23)
        values = rng.standard_normal(100_000) * 10.0 ** rng.integers(
            -6, 18, 100_000)
        values[::97] = rng.choice(self.SPECIAL, values[::97].size)
        np.save(tmp_path / "values.npy", values)
        script = ("import hashlib, sys, numpy as np; from shorttime import cli;"
                  "cli._write_csv(sys.argv[2], ['value'], np.load(sys.argv[1]));"
                  "print(hashlib.sha256(open(sys.argv[2], 'rb').read())"
                  ".hexdigest())")
        digests = []
        for features in ("", "AVX512_SPR AVX512_ICL X86_V4"):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "values.npy"),
                 str(tmp_path / "samples.csv")],
                env=dict(_child_env(), NPY_DISABLE_CPU_FEATURES=features),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        want = _reference_csv(["value"], [values])
        assert digests == [hashlib.sha256(want).hexdigest()] * 2

    @pytest.mark.parametrize("shift", [-1.0, -0.5, 0.5, 1.0])
    def test_the_exponent_guess_is_corrected(self, shift, tmp_path):
        # log10 only guesses each exponent; a guess off by one, as another
        # SIMD dispatch of log10 might give near a power of ten, is corrected
        # by the exact digit count, so no byte depends on log10's last bit
        rng = np.random.default_rng(11)
        values = np.concatenate([
            self._powers_of_ten(),
            rng.standard_normal(5000) * 10.0 ** rng.integers(-4, 17, 5000)])
        log10 = np.log10
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "log10", lambda a: log10(a) + shift)
            self._written(tmp_path / "g.csv", [values])


# Runs the CLI in a fresh interpreter whose own address space is capped at
# what the imports took plus 256 MB, as tests/test_lamperti.py does for flow.
_MEMORY_PROBE = """
import resource, sys
from shorttime import cli
pages = int(open("/proc/self/statm").read().split()[0])
cap = pages * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS,
                   (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


def _law(n):
    """A law of n equal atoms 0.01 apart."""
    return {"atoms": [[0.01 * i, 1.0 / n] for i in range(n)]}


def _child_env():
    """The environment of a child interpreter that imports this shorttime."""
    src = os.path.dirname(os.path.dirname(shorttime.__file__))
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_capped(command, cfg, tmp_path, timeout=120):
    """The finished child that ran the CLI under _MEMORY_PROBE's
    address-space cap, within timeout seconds."""
    out = tmp_path / "out"
    return subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, command, "--config",
         write_cfg(tmp_path, "c.json", cfg), "--out-dir", str(out)],
        env=_child_env(), capture_output=True, text=True, timeout=timeout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="caps the child's RLIMIT_AS via /proc")
class TestMemoryError:
    @pytest.mark.parametrize("command,cfg", [
        # 1e6 points x 32 atoms are within the caps, but their 244 MiB of
        # kernel cells are not within the child's address space
        ("density", {"drift": COS, "T": 0.1, "law": _law(32),
                     "grid": {"x_min": -5.0, "x_max": 5.0,
                              "n_points": 1_000_000}}),
        ("girsanov-error", {"drift": COS, "T": 0.1, "mc": {
            "n_paths": 64, "n_steps": 100_000_000, "base_seed": 1}}),
    ], ids=["density", "girsanov-error"])
    def test_resource_error_json(self, command, cfg, tmp_path):
        proc = _run_capped(command, cfg, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "resource"
        assert "allocate" in error["message"]

    @pytest.mark.parametrize("n", [2_000_000, 3_000_000])
    def test_summary_sample_fits(self, n, tmp_path):
        # 7.1 values a sample (114 and 171 MB) fit the child's 256 MB; at
        # 15 a sample, gathering eight coefficient rows at once, they did not
        proc = _run_capped("sample", {
            "drift": COS, "T": 0.1, "x_prime": 0.0,
            "sample": {"n": n, "seed": 1}}, tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["n"] == n

    def test_density_past_the_old_limit(self, tmp_path):
        # 800,000 points at x_prime: past the 781,250 that the mass
        # defect's 57 values a point allowed, and within the new 10
        proc = _run_capped("density", {
            "drift": COS, "T": 0.1, "x_prime": 0.0,
            "grid": {"x_min": -5.0, "x_max": 6.0, "n_points": 800_000}},
            tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert (tmp_path / "out" / "density.csv").exists()

    def test_compose_cell_cap(self, tmp_path):
        # 20,001^2 kernel cells would take 2.98 GiB: refused before any
        # allocation, so the address-space limit is never reached
        proc = _run_capped("compose", {
            "drift": COS, "T": 1.0, "x_prime": 0.0, "n_slices": 32,
            "grid": {"x_min": -6.5, "x_max": 11.5, "n_points": 20_001},
        }, tmp_path)
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "config"
        assert "grid.n_points" in error["message"]
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command,extra", [
        ("fp-solve", {}), ("compose", {"n_slices": 8,
                                       "compare_to_oracle": True}),
    ], ids=["fp-solve", "compose"])
    def test_fp_work_cap(self, command, extra, tmp_path):
        # 1e9 Crank-Nicolson steps would run for hours: refused before any
        # work, well inside the wall-time bound
        proc = _run_capped(command, dict({
            "drift": COS, "T": 1.0, "x_prime": 0.0,
            "n_time_steps": 1_000_000_000,
            "grid": {"x_min": -6.5, "x_max": 11.5, "n_points": 2001},
        }, **extra), tmp_path, timeout=20)
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "config"
        assert "n_time_steps" in error["message"]
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command,cfg,key", [
        ("sample", {"drift": COS, "T": 0.1, "x_prime": 0.0,
                    "sample": {"n": 10_000_000_000, "seed": 1}}, "sample.n"),
        ("sample", {"drift": COS, "T": 0.1, "x_prime": 0.0,
                    "sample": {"n": 100, "n_steps": 1_000_000_000, "seed": 1,
                               "scheme": "euler_maruyama_path"}},
         "sample.n_steps"),
        ("validate", {"drift": COS, "scan_range": [-1.0, 1.0],
                      "epsilon": 0.5, "scan_points": 1_000_000_000_000},
         "scan_points"),
        ("density", {"drift": COS, "T": 0.1, "x_prime": 0.0,
                     "grid": {"x_min": -5.0, "x_max": 5.0,
                              "n_points": 50_000_000}}, "grid.n_points"),
        ("density", {"drift": COS, "T": 0.1, "law": _law(64),
                     "grid": {"x_min": -5.0, "x_max": 5.0,
                              "n_points": 1_000_000}}, "law.atoms"),
        ("girsanov-error", {"drift": COS, "T": 0.1, "mc": {
            "n_paths": 1_000_000_000_000, "n_steps": 4, "base_seed": 1}},
         "mc.n_paths"),
        # 1e10 path steps a horizon, past the cap only over all three
        ("rate", {"drift": COS, "T_grid": [0.2, 0.1, 0.05], "mc": {
            "n_paths": 2_500_000_000, "n_steps": 4, "base_seed": 1}},
         "mc.n_paths"),
        # 1e9 slices of a few cells each: their library calls are the work
        ("compose", {"drift": COS, "T": 0.2, "x_prime": 0.0,
                     "n_slices": 1_000_000_000,
                     "grid": {"x_min": -3.0, "x_max": 6.0, "n_points": 301}},
         "n_slices"),
        ("fp-solve", {"drift": COS, "T": 1.0, "x_prime": 0.0,
                      "n_time_steps": 33_000_000,
                      "grid": {"x_min": -0.02, "x_max": 0.02, "n_points": 3}},
         "n_time_steps"),
        ("sample", {"drift": COS, "T": 0.1, "x_prime": 0.0,
                    "sample": {"n": 1, "n_steps": 100_000_000, "seed": 1,
                               "scheme": "euler_maruyama_path"}},
         "sample.n_steps"),
    ], ids=["sample-n", "sample-em-steps", "validate-scan-points",
            "density-n-points", "density-law-cells", "girsanov-error-mc",
            "rate-mc", "compose-slices", "fp-solve-3-points",
            "sample-em-one-path"])
    def test_size_caps(self, command, cfg, key, tmp_path):
        # each would run for hours or past the memory cap: refused before
        # any allocation, well inside the wall-time bound
        proc = _run_capped(command, cfg, tmp_path, timeout=20)
        assert proc.returncode == 2, proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error["kind"] == "config"
        assert key in error["message"]
        assert not any((tmp_path / "out").iterdir())


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_workloads():
    """bench/workloads.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(_ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config_ops():
    """(command, config) of every configs/*.json."""
    ops = []
    for name in sorted(os.listdir(os.path.join(_ROOT, "configs"))):
        with open(os.path.join(_ROOT, "configs", name)) as fh:
            cfg = json.load(fh)
        ops.append((cfg["command"], cfg))
    return ops


class _Stop(Exception):
    pass


class TestBudgetHeadroom:
    """Every op of every pinned config, and of one full-size cycle of each
    benchmark workload, sits at least 10x inside both caps of the budget.
    _budget is replaced by a recorder that stops the op at its first call,
    so no op does its work."""

    @staticmethod
    def _budgets(monkeypatch, tmp_path, ops):
        seen = []

        def record(keys, cells=0, work=0):
            seen.append((keys, cells, work))
            raise _Stop

        monkeypatch.setattr(cli, "_budget", record)
        for command, cfg in ops:
            if command == "flow":  # its sizes are the config's own list
                continue
            with pytest.raises(_Stop):
                cli.run_command(command, cfg, str(tmp_path))
        return seen

    def _check(self, seen, n_ops):
        assert len(seen) == n_ops
        for keys, cells, work in seen:
            assert 10 * cells <= cli._MAX_CELLS, keys
            assert 10 * work <= cli._MAX_WORK, keys

    def test_configs(self, monkeypatch, tmp_path):
        ops = _config_ops()
        self._check(self._budgets(monkeypatch, tmp_path, ops),
                    sum(c != "flow" for c, _ in ops))

    @pytest.mark.parametrize("workload", ["mc_rate", "grid_density",
                                          "scatter_sample"])
    def test_bench_cycle(self, workload, monkeypatch, tmp_path):
        ops = _bench_workloads().cycle(workload, 424242, 0)
        self._check(self._budgets(monkeypatch, tmp_path, ops), len(ops))

    def test_every_command_but_flow_is_budgeted(self, monkeypatch, tmp_path):
        ops = sorted(TestConfigNumbers.BASE.items())
        seen = self._budgets(monkeypatch, tmp_path, ops)
        assert len(seen) == len(ops) - 1


class TestErrorModule:
    """A library precondition error names the shorttime module that raised
    it, not the builtins module of ValueError."""

    @pytest.mark.parametrize("command,changes,module", [
        ("density", {"T": -1.0}, "lamperti"),
        ("fp-solve", {"n_time_steps": 0}, "evolution"),
        ("compose", {"n_slices": 0}, "evolution"),
        ("density", {"grid": {"x_min": 1.0, "x_max": -1.0, "n_points": 11}},
         "kernels"),
        ("girsanov-error", {"mc": {"n_paths": 1, "n_steps": 4,
                                   "base_seed": 1}}, "girsanov"),
        # a slice kernel narrower than the grid step: refused, not summed
        ("compose", {"n_slices": 1000}, "evolution"),
    ], ids=["density-T", "fp-solve-steps", "compose-slices", "grid-range",
            "mc-paths", "compose-coarse-grid"])
    def test_names_the_raising_module(self, command, changes, module,
                                      tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        dict(TestConfigNumbers.BASE[command], **changes))
        code, payload = run(capsys, command, "--config", cfg,
                            "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert payload["error"]["kind"] == "domain"
        assert payload["error"]["module"] == module


def _strict_json(text):
    """json.loads that refuses NaN and the infinities, which no strict JSON
    reader accepts."""
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in JSON")
    return json.loads(text, parse_constant=refuse)


class TestContract:
    """Every configs/*.json, shrunk, with one key at any nesting level
    dropped or set to a value of another kind, ends as main promises: exit
    0, 1 or 2 with one strict JSON line on stdout, strict JSON in every
    JSON artifact, no artifact on a config error, and on a domain error a
    module of shorttime's named, not builtins."""

    VALUES = ["x", [], {}, True, None, -1, 0, 1, 0.5, 1e300, -1e300, [1.0],
              {"a": 1}]

    @staticmethod
    def _shrunk(cfg):
        cfg = json.loads(json.dumps(cfg))
        if "mc" in cfg:
            cfg["mc"].update(n_paths=64, n_steps=16)
        if "grid" in cfg:
            cfg["grid"]["n_points"] = min(cfg["grid"]["n_points"], 301)
        if "n_time_steps" in cfg:
            cfg["n_time_steps"] = 50
        if "sample" in cfg:
            cfg["sample"]["n"] = 1000
        return cfg

    @classmethod
    def _mutations(cls, cfg):
        """cfg with each key of an object, or element of a list, at every
        nesting level, dropped or set to each of VALUES."""
        if isinstance(cfg, dict):
            def put(key, new):
                return dict(cfg, **{key: new})
            items = cfg.items()
        else:
            def put(key, new):
                return cfg[:key] + [new] + cfg[key + 1:]
            items = enumerate(cfg)
        for key, value in items:
            yield ({k: v for k, v in cfg.items() if k != key}
                   if isinstance(cfg, dict) else cfg[:key] + cfg[key + 1:])
            for new in cls.VALUES:
                yield put(key, new)
            if isinstance(value, (dict, list)):
                for sub in cls._mutations(value):
                    yield put(key, sub)

    def test_mutated_configs(self, tmp_path, capsys):
        out, broken = tmp_path / "out", []
        ops = _config_ops()
        # no pinned config holds a law: a density of two atoms stands in
        ops += [(command, dict(cfg, law={"atoms": [[0.0, 0.5], [0.5, 0.5]]}))
                for command, cfg in ops if command == "density"]
        for command, cfg in ops:
            for mutated in self._mutations(self._shrunk(cfg)):
                argv = [command, "--config",
                        write_cfg(tmp_path, "c.json", mutated),
                        "--out-dir", str(out)]
                try:
                    code = cli.main(argv)
                    lines = capsys.readouterr().out.splitlines()
                    assert code in (0, 1, 2) and len(lines) == 1
                    error = _strict_json(lines[0]).get("error", {})
                    for artifact in out.glob("*.json"):
                        _strict_json(artifact.read_text())
                    assert code != 2 or not out.exists() or not any(
                        out.iterdir())
                    assert code != 1 or error.get("module") != "builtins"
                except Exception as exc:
                    capsys.readouterr()
                    broken.append((command, mutated, repr(exc)))
                shutil.rmtree(out, ignore_errors=True)
        assert not broken, (len(broken), broken[:3])


# Runs cli.main on each argv list of a JSON list in a fresh interpreter and
# prints, as its last line, the scipy modules loaded after the import and
# after each command, with each command's exit code.
_IMPORT_PROBE = """
import json, sys
from shorttime import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = [[0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    seen.append([cli.main(argv), scipy_modules()])
print(json.dumps(seen))
"""


class TestColdStart:
    """scipy is imported by the three functions that call it, on their
    first call: the import of the CLI, and every command that runs none
    of them, loads no scipy module."""

    BASE = TestConfigNumbers.BASE

    def _seen(self, tmp_path, runs):
        """[(exit code, scipy modules)] after the import and after each
        (command, config changes) of runs, all in one fresh interpreter."""
        argvs = []
        for i, (command, changes) in enumerate(runs):
            cfg = write_cfg(tmp_path, f"c{i}.json",
                            dict(self.BASE[command], **changes))
            argvs.append([command, "--config", cfg,
                          "--out-dir", str(tmp_path / f"out{i}")])
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_no_scipy(self, tmp_path):
        assert self._seen(tmp_path, []) == [[0, []]]

    def test_commands_without_scipy(self, tmp_path):
        csv = {"sample": {"n": 10, "seed": 1, "output": "csv"}}
        seen = self._seen(tmp_path, [
            ("flow", {}), ("validate", {}), ("density", {}),
            ("girsanov-error", {}), ("sample", csv)])
        assert seen == [[0, []]] * 6

    @pytest.mark.parametrize("command,changes,module", [
        ("fp-solve", {}, "scipy.linalg"),
        ("compose", {"n_slices": 2}, "scipy.sparse"),
        ("sample", {}, "scipy.special"),
    ], ids=["fp-solve", "compose", "sample-summary"])
    def test_lazy_import_on_first_use(self, command, changes, module,
                                      tmp_path):
        (_, before), (code, after) = self._seen(tmp_path,
                                                [(command, changes)])
        assert before == [] and code == 0
        assert module in after
