import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialgrad import FlowRecord, TtsaRecord
from socialgrad.records import fmt17, write_csv


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt17_round_trips_exactly(x):
    assert float(fmt17(x)) == x


def test_flow_record_csv(tmp_path):
    rec = FlowRecord(dim=2)
    rec.append(0.0, np.array([1.0, 2.0]), np.array([0.1, 0.2]), 3.0, 0.5, 1.5)
    rec.append(0.1, np.array([1.1, 2.1]), np.array([0.2, 0.3]), 2.0, 0.4, 1.4)
    path = tmp_path / "flow.csv"
    rec.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,xstar_1,xstar_2,V,grad_norm,dist_to_pdagger"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert path.read_text().endswith("\n")


def test_ttsa_record_csv_and_json(tmp_path):
    rec = TtsaRecord(dim=2)
    rec.append(0, np.array([0.0, 0.0]), np.array([-3.0, -3.0]),
               tracking=1.0, incentive=2.0, V=0.5, accepted=True, xi_norm=0.1)
    rec.append(100, np.array([0.1, 0.1]), np.array([-2.9, -2.9]),
               tracking=0.5, incentive=1.5, V=0.4, accepted=False, xi_norm=0.05)
    rec.step_accepts = np.array([True, False, True, False])
    rec.accepted_mass = 1.25

    csv_path = tmp_path / "run.csv"
    rec.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("k,x_1,x_2,p_1,p_2,tracking_error,incentive_error,"
                        "V,indicator_accepted,xi_norm")
    assert lines[1].split(",")[8] == "1"
    assert lines[2].split(",")[8] == "0"

    json_path = tmp_path / "run.json"
    rec.write_json(json_path, config={"max_iter": 4, "seed": 0})
    payload = json.loads(json_path.read_text())
    assert payload["config"]["max_iter"] == 4
    assert payload["accepted_steps_total"] == 2
    assert payload["steps_total"] == 4
    assert payload["k"] == [0, 100]
    assert payload["indicator_accepted"] == [1, 0]
    assert payload["x"][1] == [0.1, 0.1]


def test_acceptance_fraction_windows():
    rec = TtsaRecord(dim=1)
    rec.step_accepts = np.array([True, True, False, False])
    assert rec.acceptance_fraction() == 0.5
    assert rec.acceptance_fraction(2) == 0.0
    assert rec.acceptance_fraction(0, 2) == 1.0


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [["1", "2"]])
    original = Path.write_text

    def half_then_fail(self, text, **kwargs):
        original(self, text[: len(text) // 2], **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        write_csv(tmp_path / "new.csv", ["a", "b"], [["3", "4"]])
    with pytest.raises(OSError):
        write_csv(path, ["a", "b"], [["3", "4"]])
    # no new file, no temporary file, and the old file whole
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"a,b\n1,2\n"
