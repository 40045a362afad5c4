"""End-to-end CLI runs: channel generation, synthesis, spectrum export,
acquisition, tracking, and the exit-code contract."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from synthrf import cdma, iqio, prs
from synthrf.cli import ConfigError, _build, main
from synthrf.dsp import SignalBuffer

F_S = 38.192e6

CHANNEL_SPEC = {
    "f_ch_hz": 40e3,
    "duration_s": 0.02,
    "seed": 11,
    "sources": [
        {"id": "sat1", "kind": "satellite", "los": True,
         "paths": [{"initial_delay_s": 1.0e-5, "doppler_hz": 2500.0}]},
        {"id": "sat2", "kind": "satellite", "los": True,
         "paths": [{"initial_delay_s": 1.3e-5, "doppler_hz": -1500.0}]},
    ],
}

CDMA_CONFIG = {
    "duration_s": 0.02,
    "sources": [{"prn_id": 5, "source_id": "sat1"},
                {"prn_id": 9, "source_id": "sat2"}],
    "data_seed": 3,
}

PRS_CONFIG = {
    "duration_s": 0.010,
    "seed": 2,
    "carrier": {"n_cell_id": 1},
    "sources": [{"source_id": "sat1", "n_prs_id": 10, "comb_size": 2,
                 "num_symbols": 2}],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "channel_spec.json").write_text(json.dumps(CHANNEL_SPEC))
    (d / "cdma_config.json").write_text(json.dumps(CDMA_CONFIG))
    (d / "prs_config.json").write_text(json.dumps(PRS_CONFIG))
    assert main(["gen-channel", "--spec", str(d / "channel_spec.json"),
                 "--out", str(d / "channels.chn")]) == 0
    return d


@pytest.fixture(scope="module")
def cdma_iq(workdir):
    """The 20 ms CDMA recording of the two-satellite scene."""
    out = workdir / "cdma.iq"
    assert main(["synthesize", "cdma", "--config", str(workdir / "cdma_config.json"),
                 "--channel", str(workdir / "channels.chn"),
                 "--out", str(out)]) == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenChannel:
    def test_binary_output_variant(self, workdir):
        assert main(["gen-channel", "--spec", str(workdir / "channel_spec.json"),
                     "--out", str(workdir / "channels.bin")]) == 0
        assert (workdir / "channels.bin").exists()

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["gen-channel", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.chn")]) == 2

    def test_invalid_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen-channel", "--spec", str(bad),
                     "--out", str(tmp_path / "x.chn")]) == 2

    @pytest.mark.parametrize("sid", ["sat 1", "", "s\t2"])
    def test_a_source_id_the_file_cannot_hold_is_a_runtime_error(self, tmp_path, capsys, sid):
        spec = dict(CHANNEL_SPEC, sources=[dict(CHANNEL_SPEC["sources"][0], id=sid)])
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "ch.chn"
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 1
        assert f"source id {sid!r} must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_field_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sources": [{"id": "a"}], "seed": 0}))
        assert main(["gen-channel", "--spec", str(bad),
                     "--out", str(tmp_path / "x.chn")]) == 2


class TestSynthesize:
    def test_cdma_20ms_sample_budget_and_sidecar(self, cdma_iq):
        buf, meta = iqio.read_iq(cdma_iq)
        assert len(buf) == 763840  # 38.192 MHz x 20 ms
        assert buf.sample_rate_hz == F_S
        truth = {t["prn_id"]: t for t in meta["ground_truth"]}
        assert truth[5]["delay_s"] == pytest.approx(0.0, abs=1e-12)
        assert truth[9]["delay_s"] == pytest.approx(3.0e-6, abs=1e-9)
        assert truth[5]["doppler_hz"] == pytest.approx(2500.0, abs=1.0)
        assert truth[9]["doppler_hz"] == pytest.approx(-1500.0, abs=1.0)

    def test_prs_frame_sample_budget(self, workdir):
        out = workdir / "prs.iq"
        assert main(["synthesize", "prs", "--config", str(workdir / "prs_config.json"),
                     "--channel", str(workdir / "channels.chn"),
                     "--out", str(out)]) == 0
        buf, meta = iqio.read_iq(out)
        assert len(buf) == 153600  # 15.36 MHz x 10 ms
        assert meta["numerology"]["sample_rate_hz"] == 15.36e6

    def test_unknown_channel_source_fails(self, workdir, tmp_path):
        cfg = dict(CDMA_CONFIG, sources=[{"prn_id": 5, "source_id": "ghost"}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["synthesize", "cdma", "--config", str(path),
                     "--channel", str(workdir / "channels.chn"),
                     "--out", str(tmp_path / "x.iq")]) == 1

    def test_unknown_kind_is_usage_error(self, workdir, tmp_path):
        assert main(["synthesize", "fsk", "--config", str(workdir / "cdma_config.json"),
                     "--channel", str(workdir / "channels.chn"),
                     "--out", str(tmp_path / "x.iq")]) == 2

    def test_i16_format_option(self, workdir):
        out = workdir / "cdma16.iq"
        assert main(["synthesize", "cdma", "--config", str(workdir / "cdma_config.json"),
                     "--channel", str(workdir / "channels.chn"),
                     "--out", str(out), "--format", "i16"]) == 0
        _, meta = iqio.read_iq(out)
        assert meta["format"] == "i16"


class TestSpectrum:
    def test_csv_export_and_peak(self, workdir):
        out = workdir / "spec.csv"
        assert main(["spectrum", "--channel", str(workdir / "channels.chn"),
                     "--source", "sat1", "--nfft", "256",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 256
        freqs = np.array([float(r["freq_hz"]) for r in rows])
        power = np.array([float(r["power_db"]) for r in rows])
        assert abs(freqs[np.argmax(power)] - 2500.0) <= 40e3 / 256

    def test_unknown_source_is_usage_error(self, workdir, tmp_path):
        assert main(["spectrum", "--channel", str(workdir / "channels.chn"),
                     "--source", "ghost", "--out", str(tmp_path / "x.csv")]) == 2


class TestAcquireTrack:
    def test_acquire_reports_both_prns(self, cdma_iq, workdir):
        out = workdir / "acq.csv"
        assert main(["acquire", "--iq", str(cdma_iq),
                     "--prn", "5,9,17", "--out", str(out)]) == 0
        rows = {int(r["prn_id"]): r for r in read_rows(out)}
        assert rows[5]["acquired"] == "1"
        assert rows[9]["acquired"] == "1"
        assert rows[17]["acquired"] == "0"
        assert abs(float(rows[5]["doppler_error_hz"])) <= 25.0
        assert abs(int(rows[5]["code_phase_error_samples"])) <= 19
        assert abs(int(rows[9]["code_phase_error_samples"])) <= 19
        assert rows[17]["code_phase_error_samples"] == rows[17]["doppler_error_hz"] == ""

    def test_rejected_prn_has_blank_error_cells(self, cdma_iq, workdir):
        # a threshold no peak reaches rejects both PRNs that have ground truth
        out = workdir / "acq_rejected.csv"
        assert main(["acquire", "--iq", str(cdma_iq), "--prn", "5,9",
                     "--snr-threshold", "200", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["acquired"] for r in rows] == ["0", "0"]
        for row in rows:
            assert row["code_phase_error_samples"] == row["doppler_error_hz"] == ""

    def test_track_writes_trace(self, cdma_iq, workdir):
        out = workdir / "trk.csv"
        assert main(["track", "--iq", str(cdma_iq),
                     "--prn", "5", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) >= 18  # 20 ms of 1 ms epochs, minus loop startup
        last = rows[-1]
        assert abs(float(last["doppler_error_hz"])) <= 50.0

    @pytest.mark.parametrize("r_c_hz", [1.023e6, 10.23e6])
    def test_code_phase_error_wraps_to_one_code_period(self, tmp_path, r_c_hz):
        # the second source lags the anchor by 1.5 ms: 1.5 code periods at
        # 1.023 MHz, 15 at 10.23 MHz
        spec = dict(CHANNEL_SPEC, duration_s=0.012)
        spec["sources"] = [dict(CHANNEL_SPEC["sources"][0]),
                           dict(CHANNEL_SPEC["sources"][1],
                                paths=[{"initial_delay_s": 1.51e-3, "doppler_hz": -1500.0}])]
        cfg = dict(CDMA_CONFIG, duration_s=0.012, r_c_hz=r_c_hz)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "ch.bin")]) == 0
        assert main(["synthesize", "cdma", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(tmp_path / "ch.bin"),
                     "--out", str(tmp_path / "rec.iq")]) == 0
        assert main(["acquire", "--iq", str(tmp_path / "rec.iq"), "--prn", "5,9",
                     "--out", str(tmp_path / "acq.csv")]) == 0
        rows = {int(r["prn_id"]): r for r in read_rows(tmp_path / "acq.csv")}
        assert rows[9]["acquired"] == "1"
        assert abs(int(rows[5]["code_phase_error_samples"])) <= 2
        assert abs(int(rows[9]["code_phase_error_samples"])) <= 2

    @pytest.mark.parametrize("key", ["n_samples", "sample_rate_hz", "if_offset_hz"])
    def test_sidecar_without_field_is_runtime_error(self, tmp_path, capsys, key):
        path = tmp_path / "rec.iq"
        side = iqio.write_iq(path, SignalBuffer(np.ones(10, dtype=complex), F_S))
        meta = json.loads(side.read_text())
        del meta[key]
        side.write_text(json.dumps(meta))
        assert main(["acquire", "--iq", str(path), "--prn", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert f"{side}: missing field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,edit,field", [
        ("f32", ["a", "list"], "expected a JSON object, got a list"),
        ("f32", {"format": ["f32"]}, "field 'format'"),
        ("i16", {"full_scale": None}, "field 'full_scale'"),
        ("f32", {"n_samples": 10.7}, "field 'n_samples'"),
        ("f32", {"epoch_s": "0"}, "field 'epoch_s'"),
    ])
    def test_malformed_sidecar_is_runtime_error(self, tmp_path, capsys, fmt, edit, field):
        path = tmp_path / "rec.iq"
        side = iqio.write_iq(path, SignalBuffer(np.ones(10, dtype=complex), F_S), fmt=fmt)
        meta = json.loads(side.read_text())
        side.write_text(json.dumps(dict(meta, **edit) if isinstance(edit, dict) else edit))
        assert main(["acquire", "--iq", str(path), "--prn", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert field in capsys.readouterr().err

    def test_truncated_recording_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "rec.iq"
        iqio.write_iq(path, SignalBuffer(np.ones(10, dtype=complex), F_S))
        path.write_bytes(path.read_bytes()[:-8])
        assert main(["acquire", "--iq", str(path), "--prn", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "n_samples 10 needs 80" in capsys.readouterr().err

    def test_bad_prn_list_is_usage_error(self, cdma_iq, tmp_path, capsys):
        for prns, message in (("5,banana", "bad PRN list '5,banana'"),
                              ("5,40", "PRN 40 is outside 1..32"),
                              ("0", "PRN 0 is outside 1..32")):
            assert main(["acquire", "--iq", str(cdma_iq),
                         "--prn", prns, "--out", str(tmp_path / "x.csv")]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()


class TestFromConfig:
    def test_int_fields_are_coerced(self):
        carrier = _build(prs.CarrierConfig, {"n_rb": 24.0, "n_fft": "512"}, "carrier")
        assert (carrier.n_rb, carrier.n_fft) == (24, 512)
        assert type(carrier.n_rb) is int and type(carrier.n_fft) is int

    def test_fixed_field_in_the_config_is_rejected(self):
        with pytest.raises(ConfigError, match="cdma config: unknown field 'modulate_data'"):
            _build(cdma.CdmaGenConfig, {"modulate_data": False, "r_c_hz": 1.023e6},
                   "cdma config", modulate_data=True)


BASE = {"spec": CHANNEL_SPEC, "cdma": CDMA_CONFIG, "prs": PRS_CONFIG}


def copy_at(cfg, route):
    """A deep copy of cfg and the JSON object in it that route leads to."""
    cfg = json.loads(json.dumps(cfg))
    obj = cfg
    for step in route:
        obj = obj[step]
    return cfg, obj


def run_with(tmp_path, workdir, which, cfg):
    """gen-channel on cfg as the spec, or synthesize cfg as a cdma/prs config."""
    path, out = str(tmp_path / "cfg.json"), str(tmp_path / "out")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    if which == "spec":
        return main(["gen-channel", "--spec", path, "--out", out + ".chn"])
    return main(["synthesize", which, "--config", path,
                 "--channel", str(workdir / "channels.chn"), "--out", out + ".iq"])


class TestStrictSchema:
    # (config, route to a JSON object in it, a key it must reject, the location
    # the error names): a typo in each of the 8 objects, then fields the CLI fixes
    @pytest.mark.parametrize("which,route,key,where", [
        ("spec", (), "f_ch", "channel spec"),
        ("spec", ("sources", 1), "kinds", "channel spec source[1]"),
        ("spec", ("sources", 0, "paths", 0), "dopler_hz", "channel spec source[0] path[0]"),
        ("cdma", (), "noise_power_db", "cdma config"),
        ("cdma", ("sources", 1), "prn", "cdma config source[1]"),
        ("prs", (), "noise_power_db", "prs config"),
        ("prs", ("carrier",), "nfft", "prs config carrier"),
        ("prs", ("sources", 0), "comb", "prs config source[0]"),
        ("cdma", (), "modulate_data", "cdma config"),
        ("spec", ("sources", 0, "paths", 0), "rician_k", "channel spec source[0] path[0]"),
        ("spec", (), "update_rate_hz", "channel spec"),
        ("spec", ("sources", 0), "source_id", "channel spec source[0]"),
        ("prs", (), "prs_configs", "prs config"),
    ])
    def test_unknown_key_is_usage_error(self, workdir, tmp_path, capsys,
                                        which, route, key, where):
        cfg, obj = copy_at(BASE[which], route)
        obj[key] = 1
        assert run_with(tmp_path, workdir, which, cfg) == 2
        assert f"{where}: unknown field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("which,route,key,where", [
        ("cdma", ("sources", 0), "prn_id", "cdma config source[0]"),
        ("spec", ("sources", 0, "paths", 0), "initial_delay_s", "channel spec source[0] path[0]"),
        ("spec", ("sources", 1), "id", "channel spec source[1]"),
        ("spec", (), "sources", "channel spec"),
        ("prs", ("sources", 0), "source_id", "prs config source[0]"),
        ("prs", (), "duration_s", "prs config"),
    ])
    def test_missing_field_is_usage_error(self, workdir, tmp_path, capsys,
                                          which, route, key, where):
        cfg, obj = copy_at(BASE[which], route)
        del obj[key]
        assert run_with(tmp_path, workdir, which, cfg) == 2
        assert f"{where}: missing required field '{key}'" in capsys.readouterr().err

    def test_non_integer_for_an_int_field_is_usage_error(self, workdir, tmp_path, capsys):
        cfg, carrier = copy_at(PRS_CONFIG, ("carrier",))
        carrier["n_fft"] = "many"
        assert run_with(tmp_path, workdir, "prs", cfg) == 2
        assert "prs config carrier: field 'n_fft' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("which,route,key,value", [
        ("prs", (), "noise_power_dbw", "x"),
        ("cdma", (), "noise_power_dbw", "x"),
        ("cdma", (), "r_c_hz", True),
        ("prs", ("carrier",), "scs_hz", [15e3]),
        ("spec", ("sources", 0, "paths", 0), "doppler_hz", None),
    ])
    def test_non_number_for_a_float_field_is_usage_error(self, workdir, tmp_path, capsys,
                                                         which, route, key, value):
        cfg, obj = copy_at(BASE[which], route)
        obj[key] = value
        assert run_with(tmp_path, workdir, which, cfg) == 2
        assert f"field '{key}' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("route,key,where", [
        ((), "f_ch_hz", "channel spec"),
        (("sources", 0, "paths", 0), "rician_k_db", "channel spec source[0] path[0]"),
    ])
    def test_non_number_for_a_split_off_key_is_usage_error(self, workdir, tmp_path, capsys,
                                                           route, key, where):
        # keys taken out of the JSON object before the dataclass sees the rest
        cfg, obj = copy_at(CHANNEL_SPEC, route)
        obj[key] = "x"
        assert run_with(tmp_path, workdir, "spec", cfg) == 2
        assert f"{where}: field '{key}' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("which,route,key,value,message", [
        ("cdma", (), "r_c_hz", 0, "r_c_hz must be positive"),
        ("cdma", (), "t_d_s", 0, "t_d_s must be positive"),
        ("cdma", (), "duration_s", 1e-9, "duration_s must hold at least one sample"),
        ("prs", ("carrier",), "scs_hz", 0, "scs_hz must be positive"),
        ("prs", ("carrier",), "n_rb", 0, "n_rb must be at least 1"),
        ("prs", ("carrier",), "scs_hz", 30e3, "scs_hz must be 15e3"),
    ])
    def test_degenerate_value_is_a_runtime_error(self, workdir, tmp_path, capsys,
                                                 which, route, key, value, message):
        cfg, obj = copy_at(BASE[which], route)
        obj[key] = value
        assert run_with(tmp_path, workdir, which, cfg) == 1
        assert message in capsys.readouterr().err

    def test_non_object_entry_is_usage_error(self, workdir, tmp_path, capsys):
        cfg = dict(CDMA_CONFIG, sources=[[5, "sat1"]])
        assert run_with(tmp_path, workdir, "cdma", cfg) == 2
        assert "cdma config source[0]: expected a JSON object" in capsys.readouterr().err

    def test_carrier_without_a_cyclic_prefix_is_a_runtime_error(self, workdir, tmp_path, capsys):
        cfg, carrier = copy_at(PRS_CONFIG, ("carrier",))
        carrier.update(n_rb=1, n_fft=13)
        assert run_with(tmp_path, workdir, "prs", cfg) == 1
        assert "n_fft=13 gives a 0-sample cyclic prefix" in capsys.readouterr().err

    def test_bad_value_stays_a_runtime_error(self, workdir, tmp_path, capsys):
        cfg, source = copy_at(PRS_CONFIG, ("sources", 0))
        source["comb_size"] = 3
        assert run_with(tmp_path, workdir, "prs", cfg) == 1
        assert "comb_size must be one of 2, 4, 6, 12" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_examples_run(tmp_path):
    """The README's channel spec, CDMA and PRS configs pass the strict schema."""
    spec, cdma_cfg, prs_cfg = (json.loads(block) for block in
                               re.findall(r"```json\n(.*?)```", README.read_text(), re.S))
    for name, cfg in [("spec", spec), ("cdma", cdma_cfg), ("prs", prs_cfg)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "ch.chn")]) == 0
    for kind in ("cdma", "prs"):
        assert main(["synthesize", kind, "--config", str(tmp_path / f"{kind}.json"),
                     "--channel", str(tmp_path / "ch.chn"),
                     "--out", str(tmp_path / f"{kind}.iq")]) == 0


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "synthesize" in capsys.readouterr().out
