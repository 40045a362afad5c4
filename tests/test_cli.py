"""End-to-end CLI runs: channel generation, synthesis, spectrum export,
acquisition, tracking, and the exit-code contract."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from synthrf import cdma, channel, dsp, iqio, prn, prs, receiver
from synthrf.cli import ConfigError, _build, build_parser, main
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

# a LOS satellite and a -30 dB Rayleigh-faded NLOS one, as in the README's spec
LOS_NLOS_SPEC = dict(CHANNEL_SPEC, duration_s=0.012, sources=[
    CHANNEL_SPEC["sources"][0],
    {"id": "sat2", "kind": "satellite", "los": False,
     "paths": [{"initial_delay_s": 1.3e-5, "doppler_hz": -1500.0, "mean_power_db": -30.0,
                "fading_doppler_hz": 400.0}]},
])

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


@pytest.fixture(scope="module")
def prs_iq(workdir):
    """The 10 ms i16 PRS recording of sat1."""
    out = workdir / "prs16.iq"
    assert main(["synthesize", "prs", "--config", str(workdir / "prs_config.json"),
                 "--channel", str(workdir / "channels.chn"),
                 "--out", str(out), "--format", "i16"]) == 0
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

    def test_a_repeated_source_id_is_a_runtime_error(self, tmp_path, capsys):
        spec = dict(CHANNEL_SPEC, sources=[CHANNEL_SPEC["sources"][0],
                                           dict(CHANNEL_SPEC["sources"][1], id="sat1")])
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "ch.chn"
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 1
        assert "error: source sat1: id listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_option_overrides_the_spec_seed(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(LOS_NLOS_SPEC))
        for name, seed in (("spec", []), ("same", ["--seed", "11"]), ("other", ["--seed", "12"])):
            assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path / f"{name}.chn"), *seed]) == 0
        assert (tmp_path / "same.chn").read_bytes() == (tmp_path / "spec.chn").read_bytes()
        spec, other = (channel.load_channel(tmp_path / f"{n}.chn") for n in ("spec", "other"))
        np.testing.assert_array_equal(other.source("sat1").paths[0].coefficients,
                                      spec.source("sat1").paths[0].coefficients)  # unfaded
        assert not np.array_equal(other.source("sat2").paths[0].coefficients,
                                  spec.source("sat2").paths[0].coefficients)

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
        assert meta["sample_rate_hz"] == 15.36e6

    def test_sidecars_state_each_value_once(self, cdma_iq, prs_iq):
        # no key restates another: no duration_s (n_samples / sample_rate_hz), no f_if_hz
        # (if_offset_hz), no numerology sample_rate_hz (sample_rate_hz)
        common = {"format", "sample_rate_hz", "if_offset_hz", "n_samples", "kind",
                  "ground_truth"}
        meta = json.loads(iqio.sidecar_path(cdma_iq).read_text())
        assert set(meta) == common | {"r_c_hz", "t_d_s", "data_seed", "noise_seed"}
        meta = json.loads(iqio.sidecar_path(prs_iq).read_text())
        assert set(meta) == common | {"full_scale", "seed", "numerology"}
        assert set(meta["numerology"]) == {"scs_hz", "n_fft", "n_rb"}

    @pytest.mark.parametrize("ext", [".chn", ".bin"])
    def test_a_channel_file_repeating_a_source_id_is_a_runtime_error(self, workdir, tmp_path,
                                                                     capsys, ext):
        one = tmp_path / f"one{ext}"
        channel.store_channel(channel.ChannelSet(
            channel.load_channel(workdir / "channels.chn").sources[:1], 40e3), one)
        magic, body = one.read_bytes().split(b"\n", 1)
        (tmp_path / f"two{ext}").write_bytes(magic + b"\n" + body + body)
        out = tmp_path / "x.iq"
        assert main(["synthesize", "cdma", "--config", str(workdir / "cdma_config.json"),
                     "--channel", str(tmp_path / f"two{ext}"), "--out", str(out)]) == 1
        assert "error: source sat1: id listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_a_prs_source_listed_twice_is_usage_error(self, workdir, tmp_path, capsys):
        source = PRS_CONFIG["sources"][0]
        cfg = dict(PRS_CONFIG, sources=[source, dict(source, n_prs_id=20)])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "x.iq"
        assert main(["synthesize", "prs", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(workdir / "channels.chn"), "--out", str(out)]) == 2
        assert ("error: prs config source[1]: source_id 'sat1' is already listed"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_a_cdma_prn_listed_twice_is_a_runtime_error(self, workdir, tmp_path, capsys):
        cfg = dict(CDMA_CONFIG, sources=[{"prn_id": 5, "source_id": "sat1"},
                                         {"prn_id": 5, "source_id": "sat2"}])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "x.iq"
        assert main(["synthesize", "cdma", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(workdir / "channels.chn"), "--out", str(out)]) == 1
        assert ("error: PRN 5 is listed for source sat1 and source sat2"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind,cfg", [
        ("cdma", dict(CDMA_CONFIG, sources=[CDMA_CONFIG["sources"][0],
                                            {"prn_id": 7, "source_id": "ghost"}])),
        ("prs", dict(PRS_CONFIG, sources=[PRS_CONFIG["sources"][0],
                                          {"source_id": "ghost", "n_prs_id": 20}])),
    ])
    def test_a_config_source_missing_from_the_channel_file_is_usage_error(
            self, workdir, tmp_path, capsys, kind, cfg):
        path, out = tmp_path / "bad.json", tmp_path / "x.iq"
        path.write_text(json.dumps(cfg))
        assert main(["synthesize", kind, "--config", str(path),
                     "--channel", str(workdir / "channels.chn"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {kind} config source[1]: source_id 'ghost' is not in the channel file, "
            "which holds 'sat1', 'sat2'\n")
        assert not out.exists()

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

    def test_unknown_source_is_usage_error(self, workdir, tmp_path, capsys):
        assert main(["spectrum", "--channel", str(workdir / "channels.chn"),
                     "--source", "ghost", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: no source 'ghost' in channel set\n"


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

    def test_track_skips_a_rejected_prn(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps(LOS_NLOS_SPEC))
        (tmp_path / "cfg.json").write_text(json.dumps(dict(CDMA_CONFIG, duration_s=0.012)))
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "ch.chn")]) == 0
        assert main(["synthesize", "cdma", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(tmp_path / "ch.chn"), "--out", str(tmp_path / "rec.iq")]) == 0
        capsys.readouterr()
        out = tmp_path / "trk.csv"
        assert main(["track", "--iq", str(tmp_path / "rec.iq"), "--prn", "5,9",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "PRN 05: tracked 12 epochs" in printed
        assert re.search(r"PRN 09: not acquired \(snr=[\d.]+ dB\), skipped", printed)
        rows = read_rows(out)
        assert len(rows) == 12 and {r["prn_id"] for r in rows} == {"5"}

    def test_acquire_writes_the_per_prn_results(self, tmp_path):
        # one search over a 5-PRN recording (and a PRN it lacks) writes the rows of
        # separate receiver.acquire calls
        prns = (2, 5, 11, 23, 29)
        spec = dict(CHANNEL_SPEC, duration_s=0.012, sources=[
            {"id": f"sat{i}", "kind": "satellite", "los": True,
             "paths": [{"initial_delay_s": (10 + 2 * i) * 1e-6, "doppler_hz": 1000.0 * i - 2500.0}]}
            for i in range(len(prns))])
        cfg = dict(CDMA_CONFIG, duration_s=0.012,
                   sources=[{"prn_id": p, "source_id": f"sat{i}"} for i, p in enumerate(prns)])
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rec, out = tmp_path / "rec.iq", tmp_path / "acq.csv"
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "ch.bin")]) == 0
        assert main(["synthesize", "cdma", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(tmp_path / "ch.bin"), "--out", str(rec)]) == 0
        assert main(["acquire", "--iq", str(rec), "--prn", "2,5,11,23,29,17",
                     "--out", str(out)]) == 0
        buf, _ = iqio.read_iq(rec)
        rows = read_rows(out)
        assert [r["acquired"] for r in rows] == ["1"] * 5 + ["0"]
        for row, prn_id in zip(rows, (*prns, 17), strict=True):
            res = receiver.acquire(buf, prn.generate_ca_code(prn_id))
            assert [row[k] for k in ("prn_id", "acquired", "code_phase_samples",
                                     "coarse_freq_hz", "fine_freq_hz", "snr_db")] == \
                [str(v) for v in (prn_id, int(res.acquired), res.code_phase_samples,
                                  res.coarse_freq_hz, res.fine_freq_hz, res.snr_db)]

    @pytest.mark.parametrize("workers", [1, 2, 3, "more"])
    def test_workers_change_no_output_bit(self, tmp_path, capsys, workers):
        # 4 PRNs searched and 3 tracked (PRN 17 is absent) on 1, 2, 3 and more workers than
        # items write the CSV and the lines of acquisition and tracking one item at a time
        spec = dict(CHANNEL_SPEC, duration_s=0.012, sources=[
            {"id": f"sat{i}", "kind": "satellite", "los": True,
             "paths": [{"initial_delay_s": (10 + 3 * i) * 1e-6, "doppler_hz": 1500.0 * i - 2000.0}]}
            for i in range(3)])
        cfg = dict(CDMA_CONFIG, duration_s=0.012, noise_power_dbw=-10.0,
                   sources=[{"prn_id": p, "source_id": f"sat{i}"} for i, p in enumerate((5, 9, 2))])
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rec = str(tmp_path / "rec.iq")
        assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "ch.bin")]) == 0
        assert main(["synthesize", "cdma", "--config", str(tmp_path / "cfg.json"),
                     "--channel", str(tmp_path / "ch.bin"), "--out", rec]) == 0
        argv = ["track", "--iq", rec, "--prn", "5,17,9,2", "--out"]

        def one_at_a_time(fn, items):
            return [fn(item) for item in items]
        with mock.patch.object(dsp, "pool_map", one_at_a_time), \
                mock.patch.object(receiver, "pool_map", one_at_a_time):
            capsys.readouterr()
            assert main(argv + [str(tmp_path / "want.csv")]) == 0
            want = capsys.readouterr().out
        cpus = range(5 if workers == "more" else workers)
        pool = mock.Mock(wraps=dsp.ThreadPoolExecutor)
        with mock.patch.object(dsp.os, "sched_getaffinity", return_value=cpus), \
                mock.patch.object(dsp, "ThreadPoolExecutor", pool):
            assert main(argv + [str(tmp_path / "got.csv")]) == 0
        got = capsys.readouterr().out
        # a pool for the 4 searches, then one for the 3 PRNs acquired, each capped at its items
        assert pool.call_args_list == [mock.call(min(len(cpus), 4)), mock.call(min(len(cpus), 3))]
        assert "PRN 17: not acquired" in got and len(re.findall(r"tracked \d+ epochs", got)) == 3
        assert got == want.replace("want", "got")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("command", ["acquire", "track"])
    @pytest.mark.parametrize("r_c_hz", ["abc", 0.0, -1.0, 1e9, 19.096e6 + 1.0, None, True,
                                        float("nan"), float("inf")])
    def test_a_bad_chip_rate_is_usage_error(self, cdma_iq, tmp_path, capsys, command, r_c_hz):
        # r_c_hz must be a positive number no larger than f_s/2, as CdmaGenConfig requires
        path = tmp_path / "rec.iq"
        path.write_bytes(cdma_iq.read_bytes())
        side = iqio.sidecar_path(path)
        meta = json.loads(iqio.sidecar_path(cdma_iq).read_text())
        side.write_text(json.dumps(dict(meta, r_c_hz=r_c_hz)))
        out = tmp_path / "x.csv"
        assert main([command, "--iq", str(path), "--prn", "5", "--out", str(out)]) == 2
        assert (f"error: {side}: field 'r_c_hz' must be a number in (0, f_s/2 = 1.9096e+07 Hz], "
                f"got {r_c_hz!r}") in capsys.readouterr().err
        assert not out.exists()

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
        ("i16", {"full_scale": 0}, "field 'full_scale' must be positive"),
        ("f32", {"sample_rate_hz": 0}, "field 'sample_rate_hz' must be positive"),
    ])
    def test_malformed_sidecar_is_runtime_error(self, tmp_path, capsys, fmt, edit, field):
        path = tmp_path / "rec.iq"
        side = iqio.write_iq(path, SignalBuffer(np.ones(10, dtype=complex), F_S), fmt=fmt)
        meta = json.loads(side.read_text())
        side.write_text(json.dumps(dict(meta, **edit) if isinstance(edit, dict) else edit))
        assert main(["acquire", "--iq", str(path), "--prn", "5",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["acquire", "track"])
    def test_a_recording_without_a_chip_rate_is_usage_error(self, prs_iq, tmp_path, capsys,
                                                             command):
        # a PRS recording states no r_c_hz; none is assumed in its place
        out = tmp_path / "x.csv"
        assert main([command, "--iq", str(prs_iq), "--prn", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {iqio.sidecar_path(prs_iq)}: missing field 'r_c_hz'" in err
        assert "in a recording of kind 'prs'" in err
        assert not out.exists()

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
                              (",", "empty PRN list"),
                              ("0", "PRN 0 is outside 1..32")):
            assert main(["acquire", "--iq", str(cdma_iq),
                         "--prn", prns, "--out", str(tmp_path / "x.csv")]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["acquire", "track"])
    def test_repeated_prn_is_usage_error(self, cdma_iq, tmp_path, capsys, monkeypatch, command):
        # the check runs before the recording is read, so read_iq is never reached
        monkeypatch.setattr(iqio, "read_iq", lambda *args: pytest.fail("recording read"))
        out = tmp_path / "x.csv"
        assert main([command, "--iq", str(cdma_iq), "--prn", "9,5,17,5",
                     "--out", str(out)]) == 2
        assert "error: PRN 5 is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["acquire", "track"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_snr_threshold_is_usage_error(self, tmp_path, capsys, command, value):
        # the recording does not exist: the threshold is checked before it is read
        out = tmp_path / "x.csv"
        assert main([command, "--iq", str(tmp_path / "missing.iq"), "--prn", "5",
                     f"--snr-threshold={value}", "--out", str(out)]) == 2
        assert (f"--snr-threshold {float(value)}: snr_threshold_db must be finite"
                in capsys.readouterr().err)
        assert not out.exists()


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
        ("prs", (), "seed", "prs config"),
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
        ("prs", ("carrier",), "scs_hz", 0, "scs_hz must be 15e3"),
        ("prs", ("carrier",), "n_rb", 0, "n_rb must be at least 1"),
        ("prs", ("carrier",), "scs_hz", 30e3, "scs_hz must be 15e3"),
        ("prs", ("sources", 0), "symbol_start", -1, "symbol_start must be in 0..14 - num_symbols"),
        ("prs", ("sources", 0), "n_rb_prs", 0, "n_rb_prs must be at least 1"),
        ("prs", ("sources", 0), "resource_repetition", 11,
         "resource_repetition's last slot falls past the set period"),
        ("prs", ("sources", 0), "muting_pattern", [2], "muting_pattern entries must be 0 or 1"),
        ("prs", ("sources", 0), "muting_pattern", [],
         "muting_pattern entries must be 0 or 1, and one or more"),
        ("spec", ("sources", 0, "paths", 0), "mean_power_db", float("inf"),
         "source sat1 path 0: mean_power_db must be finite"),
        # 10**400 overflows a float: the same error and exit code, not a traceback
        ("spec", ("sources", 0, "paths", 0), "mean_power_db", 4000,
         "source sat1 path 0: mean_power_db must be finite"),
    ])
    def test_degenerate_value_is_a_runtime_error(self, workdir, tmp_path, capsys,
                                                 which, route, key, value, message):
        cfg, obj = copy_at(BASE[which], route)
        obj[key] = value
        assert run_with(tmp_path, workdir, which, cfg) == 1
        assert message in capsys.readouterr().err

    NAN, INF = float("nan"), float("inf")

    # each value the library rejects before rendering, and the field its error names
    @pytest.mark.parametrize("which,route,key,value,message", [
        ("cdma", (), "noise_power_dbw", NAN, "noise_power_dbw must be finite, or -inf"),
        ("cdma", (), "noise_power_dbw", INF, "noise_power_dbw must be finite, or -inf"),
        ("prs", (), "noise_power_dbw", NAN, "noise_power_dbw must be finite, or -inf"),
        ("prs", (), "noise_power_dbw", INF, "noise_power_dbw must be finite, or -inf"),
        ("cdma", (), "f_if_hz", NAN, "f_if_hz must lie inside the complex Nyquist band"),
        ("cdma", (), "duration_s", INF,
         "duration_s must hold at least one sample at f_s_hz, and be finite"),
        ("cdma", (), "t_d_s", INF, "t_d_s must be positive and finite"),
        ("cdma", (), "f_s_hz", INF, "f_s_hz must be positive and finite"),
        ("prs", (), "duration_s", INF, "duration_s shorter than one slot, or not finite"),
        ("spec", (), "f_ch_hz", INF, "must be positive and finite (a spec's f_ch_hz)"),
        ("spec", (), "duration_s", INF,
         "duration_s holds no snapshot at update_rate_hz, or is not finite"),
        ("cdma", (), "duration_s", NAN,
         "duration_s must hold at least one sample at f_s_hz, and be finite"),
        ("prs", (), "duration_s", NAN, "duration_s shorter than one slot, or not finite"),
        # 1.6 slots was rounded to 2 without a word
        ("prs", (), "duration_s", 0.0016, "duration_s 0.0016 s must be whole slots of 0.001 s"),
        ("spec", (), "duration_s", NAN,
         "duration_s holds no snapshot at update_rate_hz, or is not finite"),
        # 20 ms at -1e-3 s/s takes the 10 us delay to -10 us
        ("spec", ("sources", 0, "paths", 0), "delay_rate", -1e-3,
         "source sat1 path 0: delays must be finite and non-negative"),
        ("spec", ("sources", 0, "paths", 0), "doppler_hz", NAN,
         "source sat1 path 0: channel coefficients must be finite"),
        # the path is LOS and unfaded, so its diffuse draw is unused
        ("spec", ("sources", 0, "paths", 0), "fading_doppler_hz", NAN,
         "source sat1 path 0: fading_doppler_hz must be finite"),
        ("cdma", (), "data_seed", -3, "data_seed must be non-negative"),
        ("cdma", (), "noise_seed", -3, "noise_seed must be non-negative"),
        ("prs", (), "seed", -3, "error: seed must be non-negative"),
        ("prs", (), "noise_seed", -3, "noise_seed must be non-negative"),
        ("spec", (), "seed", -3, "error: seed must be non-negative"),
        # a finite float64 level, but past float32's range: no recording of infinities
        ("cdma", (), "noise_power_dbw", 1000.0, "exceeds float32's limit 3.40282e+38"),
    ])
    def test_bad_number_is_a_runtime_error_naming_the_field(self, workdir, tmp_path, capsys,
                                                            which, route, key, value, message):
        cfg, obj = copy_at(BASE[which], route)
        obj[key] = value
        assert run_with(tmp_path, workdir, which, cfg) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize("value", [4000, -4000, NAN])
    def test_rician_k_db_past_a_float_is_usage_error(self, workdir, tmp_path, capsys, value):
        # past 3000 dB the linear K nears a float's range (10**400 overflows), and a NaN K
        # is no Ricean factor
        cfg, path = copy_at(CHANNEL_SPEC, ("sources", 0, "paths", 0))
        path["rician_k_db"] = value
        assert run_with(tmp_path, workdir, "spec", cfg) == 2
        assert ("channel spec source[0] path[0]: field 'rician_k_db' must lie in "
                "[-3000, 3000] dB, or be Infinity or -Infinity") in capsys.readouterr().err
        assert not list(tmp_path.glob("out.*"))

    def test_infinite_rician_k_db_keeps_its_meaning(self, tmp_path):
        # Infinity: an unfaded LOS path, as with no K; -Infinity: K = 0, a Rayleigh path
        inf = self.INF
        def coefficients(los, **k_db):
            cfg, path = copy_at(CHANNEL_SPEC, ("sources", 0, "paths", 0))
            path.update(k_db, fading_doppler_hz=100.0)
            cfg["sources"][0]["los"] = los
            (tmp_path / "spec.json").write_text(json.dumps(cfg))
            assert main(["gen-channel", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path / "ch.bin")]) == 0
            return channel.load_channel(tmp_path / "ch.bin").source("sat1").paths[0].coefficients
        np.testing.assert_array_equal(coefficients(True, rician_k_db=inf), coefficients(True))
        np.testing.assert_array_equal(coefficients(True, rician_k_db=-inf), coefficients(False))
        assert np.ptp(np.abs(coefficients(False))) > 0.1

    # a LOS source with an echo (path 1), then the NLOS source of LOS_NLOS_SPEC
    ECHO_SPEC = dict(LOS_NLOS_SPEC, sources=[
        dict(CHANNEL_SPEC["sources"][0], paths=[
            CHANNEL_SPEC["sources"][0]["paths"][0],
            {"initial_delay_s": 1.2e-5, "mean_power_db": -10.0, "fading_doppler_hz": 50.0}]),
        LOS_NLOS_SPEC["sources"][1]])

    @pytest.mark.parametrize("route,value", [
        (("sources", 1, "paths", 0), 10), (("sources", 1, "paths", 0), -INF),
        (("sources", 0, "paths", 1), 3), (("sources", 0, "paths", 1), INF)])
    def test_rician_k_db_off_a_los_path_0_is_usage_error(self, workdir, tmp_path, capsys,
                                                         route, value):
        # only path 0 of a LOS source has a LOS component for K to weigh
        cfg, path = copy_at(self.ECHO_SPEC, route)
        path["rician_k_db"] = value
        assert run_with(tmp_path, workdir, "spec", cfg) == 2
        assert (f"channel spec source[{route[1]}] path[{route[3]}]: field 'rician_k_db' applies "
                "only to path 0 of a LOS source") in capsys.readouterr().err
        assert not list(tmp_path.glob("out.*"))

    def test_null_rician_k_db_is_accepted_on_every_path(self, workdir, tmp_path):
        cfg = copy_at(self.ECHO_SPEC, ())[0]
        assert run_with(tmp_path, workdir, "spec", cfg) == 0
        without = (tmp_path / "out.chn").read_bytes()
        for src in cfg["sources"]:
            for path in src["paths"]:
                path["rician_k_db"] = None
        assert run_with(tmp_path, workdir, "spec", cfg) == 0
        assert (tmp_path / "out.chn").read_bytes() == without

    def test_negative_seed_flag_is_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.chn"
        assert main(["gen-channel", "--spec", str(workdir / "channel_spec.json"),
                     "--out", str(out), "--seed", "-3"]) == 2
        assert "--seed -3: must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_synthesize_has_no_seed_option(self, workdir, tmp_path, capsys):
        # the config sets the seed: data_seed for CDMA (default 0), seed for PRS (required)
        assert main(["synthesize", "cdma", "--config", str(workdir / "cdma_config.json"),
                     "--channel", str(workdir / "channels.chn"),
                     "--out", str(tmp_path / "x.iq"), "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert main(["synthesize", "--help"]) == 0
        assert "--seed" not in capsys.readouterr().out

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


def test_every_command_runs_without_scipy(workdir, tmp_path):
    """numpy is the only runtime dependency: each command exits 0 where scipy cannot be
    imported, at module level or inside a function."""
    w, t = workdir, tmp_path
    commands = [
        ["gen-channel", "--spec", f"{w}/channel_spec.json", "--out", f"{t}/ch.bin"],
        ["synthesize", "cdma", "--config", f"{w}/cdma_config.json", "--channel", f"{t}/ch.bin",
         "--out", f"{t}/cdma.iq"],
        ["synthesize", "prs", "--config", f"{w}/prs_config.json", "--channel", f"{t}/ch.bin",
         "--out", f"{t}/prs.iq", "--format", "i16"],
        ["acquire", "--iq", f"{t}/cdma.iq", "--prn", "5,9", "--out", f"{t}/acq.csv"],
        ["track", "--iq", f"{t}/cdma.iq", "--prn", "5,9", "--out", f"{t}/trk.csv"],
        ["spectrum", "--channel", f"{t}/ch.bin", "--source", "sat1", "--nfft", "512",
         "--out", f"{t}/dop.csv"],
    ]
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None  # importing scipy or a submodule now fails\n"
              "from synthrf.cli import main\n"
              "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cdma.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0] * len(commands), run.stderr
    assert {row["prn_id"] for row in read_rows(t / "trk.csv")} == {"5", "9"}


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "synthesize" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["acquire", "track"])
    def test_snr_threshold_defaults_to_the_acquisition_config(self, command):
        args = build_parser().parse_args([command, "--iq", "x", "--prn", "1", "--out", "y"])
        assert args.snr_threshold == receiver.AcquisitionConfig.snr_threshold_db
