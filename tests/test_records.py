import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from socialgrad import FlowRecord, TtsaRecord
from socialgrad.records import write_csv


def fmt17(x) -> str:
    """The per-value rendering of the earlier per-row CSV writers."""
    return format(float(x), ".17g")


def _old_flow_csv(rows, n) -> str:
    """The earlier FlowRecord CSV writer: one fmt17 call per value."""
    header = (["t"] + [f"p_{i+1}" for i in range(n)] + [f"xstar_{i+1}" for i in range(n)]
              + ["V", "grad_norm", "dist_to_pdagger"])
    lines = [",".join(header)]
    for t, p, x, V, grad_norm, dist in rows:
        lines.append(",".join([fmt17(t), *map(fmt17, p), *map(fmt17, x),
                               fmt17(V), fmt17(grad_norm), fmt17(dist)]))
    return "\n".join(lines) + "\n"


def _old_ttsa_csv(rows, n) -> str:
    """The earlier TtsaRecord CSV writer: str(k), 0/1 flags, fmt17 otherwise."""
    header = (["k"] + [f"x_{i+1}" for i in range(n)] + [f"p_{i+1}" for i in range(n)]
              + ["tracking_error", "incentive_error", "V", "indicator_accepted", "xi_norm"])
    lines = [",".join(header)]
    for k, x, p, tracking, incentive, V, accepted, xi_norm in rows:
        lines.append(",".join([str(k), *map(fmt17, x), *map(fmt17, p), fmt17(tracking),
                               fmt17(incentive), fmt17(V), "1" if accepted else "0",
                               fmt17(xi_norm)]))
    return "\n".join(lines) + "\n"


# values whose rendering is easy to get wrong: signed zeros, subnormals,
# extremes, and floats that need all 17 digits
_HARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
         1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.0 / 3.0, 123456789.123456789, 1e-5]


def _hard_vectors(rng, count, n):
    return [rng.choice(_HARD, size=n) * rng.choice([1.0, rng.uniform()], size=n)
            for _ in range(count)]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt17_round_trips_exactly(x):
    assert float(fmt17(x)) == x
    assert "%.17g" % x == fmt17(x)


def test_flow_record_csv_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    n, count = 3, 40
    rows = list(zip(rng.choice(_HARD, size=count), _hard_vectors(rng, count, n),
                    _hard_vectors(rng, count, n), rng.choice(_HARD, size=count),
                    rng.choice(_HARD, size=count), rng.choice(_HARD, size=count)))
    rec = FlowRecord(dim=n)
    for t, p, x, V, grad_norm, dist in rows:
        rec.append([t, *p, *x, V, grad_norm, dist])
    rec.write_csv(tmp_path / "flow.csv")
    assert (tmp_path / "flow.csv").read_text() == _old_flow_csv(rows, n)


def test_ttsa_record_csv_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 2
    ks = [0, 1, 99, 100, 12345, 999_999, 9_999_999, 10_000_000]
    rows = [(k, x, p, *rng.choice(_HARD, size=3), bool(k % 2), rng.choice(_HARD))
            for k, x, p in zip(ks, _hard_vectors(rng, len(ks), n),
                               _hard_vectors(rng, len(ks), n))]
    rec = TtsaRecord(dim=n)
    for k, x, p, tracking, incentive, V, accepted, xi_norm in rows:
        rec.append([k, *x, *p, tracking, incentive, V, accepted, xi_norm])
    rec.write_csv(tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_text() == _old_ttsa_csv(rows, n)


def test_flow_record_csv(tmp_path):
    rec = FlowRecord(dim=2)
    rec.append([0.0, 1.0, 2.0, 0.1, 0.2, 3.0, 0.5, 1.5])
    rec.append([0.1, 1.1, 2.1, 0.2, 0.3, 2.0, 0.4, 1.4])
    path = tmp_path / "flow.csv"
    rec.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,xstar_1,xstar_2,V,grad_norm,dist_to_pdagger"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"
    assert path.read_text().endswith("\n")
    assert np.array_equal(rec.column("xstar"), [[0.1, 0.2], [0.2, 0.3]])
    assert np.array_equal(rec.column("V"), [3.0, 2.0])


def test_ttsa_record_csv_and_json(tmp_path):
    rec = TtsaRecord(dim=2)
    rec.append([0, 0.0, 0.0, -3.0, -3.0, 1.0, 2.0, 0.5, True, 0.1])
    rec.append([100, 0.1, 0.1, -2.9, -2.9, 0.5, 1.5, 0.4, False, 0.05])
    rec.step_accepts = np.array([True, False, True, False])
    rec.accepted_mass = 1.25

    csv_path = tmp_path / "run.csv"
    rec.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("k,x_1,x_2,p_1,p_2,tracking_error,incentive_error,"
                        "V,indicator_accepted,xi_norm")
    assert lines[1].split(",")[8] == "1"
    assert lines[2].split(",")[8] == "0"

    # the JSON keeps the config and the step totals; the samples are the CSV's
    json_path = tmp_path / "run.json"
    rec.write_json(json_path, config={"max_iter": 4, "seed": 0})
    payload = json.loads(json_path.read_text())
    assert payload == {"kind": "ttsa", "config": {"max_iter": 4, "seed": 0},
                       "accepted_steps_total": 2, "steps_total": 4}


def test_record_store_grows_past_its_capacity():
    rec = TtsaRecord(dim=1)
    for k in range(37):
        rec.append([k, k, -k, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert len(rec) == 37 and rec.samples.shape == (37, 8)
    assert np.array_equal(rec.column("k"), np.arange(37))
    assert np.array_equal(rec.column("p")[:, 0], -np.arange(37))


def test_acceptance_fraction_windows():
    rec = TtsaRecord(dim=1)
    rec.step_accepts = np.array([True, True, False, False])
    assert rec.acceptance_fraction() == 0.5
    assert rec.acceptance_fraction(2) == 0.0
    assert rec.acceptance_fraction(0, 2) == 1.0


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[1, 2]])
    original = Path.write_text

    def half_then_fail(self, text, **kwargs):
        original(self, text[: len(text) // 2], **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError):
        write_csv(tmp_path / "new.csv", ["a", "b"], [[3, 4]])
    with pytest.raises(OSError):
        write_csv(path, ["a", "b"], [[3, 4]])
    # no new file, no temporary file, and the old file whole
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"a,b\n1,2\n"
