import pytest

from laco import cli
from laco import scenario as sc
from laco.cli import main
from laco.wire import deserialize
from test_telemetry import bad_streams


@pytest.fixture(scope="module")
def occluded_path():
    return str(sc.builtin_scenario_path("occluded_1"))


def test_run_writes_metrics(tmp_path, occluded_path, capsys):
    out = tmp_path / "metrics.csv"
    rc = main(["run", "--scenario", occluded_path, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,paradigm,agent")
    assert len(lines) == 3  # header + 2 agents


def test_run_repeat_byte_identical(tmp_path, occluded_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        tel = tmp_path / f"{name}.bin"
        assert main(["run", "--scenario", occluded_path, "--out", str(out),
                     "--telemetry", str(tel)]) == 0
        outs.append((out.read_bytes(), tel.read_bytes()))
    assert outs[0] == outs[1]


def test_paradigm_override(tmp_path, occluded_path):
    out = tmp_path / "nc.csv"
    assert main(["run", "--scenario", occluded_path, "--paradigm", "NonCollab",
                 "--out", str(out)]) == 0
    assert ",NonCollab," in out.read_text().splitlines()[1]


def test_analyze_outputs(tmp_path, occluded_path):
    tel = tmp_path / "t.bin"
    assert main(["run", "--scenario", occluded_path, "--out", str(tmp_path / "m.csv"),
                 "--telemetry", str(tel)]) == 0
    assert main(["analyze", "--in", str(tel), "--out", str(tmp_path / "diag")]) == 0
    for name in ("entropy.csv", "sparsity.csv", "confusion.csv"):
        assert (tmp_path / "diag" / name).exists()
    confusion = (tmp_path / "diag" / "confusion.csv").read_text().splitlines()
    assert len(confusion) > 1


def test_analyze_repeat_byte_identical(tmp_path, occluded_path):
    tel = tmp_path / "t.bin"
    main(["run", "--scenario", occluded_path, "--out", str(tmp_path / "m.csv"),
          "--telemetry", str(tel)])
    blobs = []
    for name in ("d1", "d2"):
        main(["analyze", "--in", str(tel), "--out", str(tmp_path / name)])
        blobs.append(tuple((tmp_path / name / f).read_bytes()
                           for f in ("entropy.csv", "sparsity.csv", "confusion.csv")))
    assert blobs[0] == blobs[1]


def test_sweep_csv_deterministic(tmp_path, occluded_path):
    args = ["sweep", "--param", "m", "--values", "0,10", "--scenario", occluded_path,
            "--paradigm", "LACO"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0].startswith("param,value,scenario")


def test_dump_payload(tmp_path, occluded_path, capsys):
    pdir = tmp_path / "payloads"
    main(["run", "--scenario", occluded_path, "--out", str(tmp_path / "m.csv"),
          "--payload-dir", str(pdir)])
    blobs = sorted(pdir.glob("*.bin"))
    assert blobs
    deserialize(blobs[0].read_bytes())  # parses cleanly
    assert main(["dump-payload", str(blobs[0])]) == 0
    text = capsys.readouterr().out
    assert "l_comm" in text and "salient_count" in text


def test_bad_scenario_path_errors(tmp_path, capsys):
    missing = tmp_path / "nope.laco"
    missing.write_text("grid = xyz\n")
    assert main(["run", "--scenario", str(missing), "--out", str(tmp_path / "m.csv")]) == 1
    assert "error:" in capsys.readouterr().err


BAD_SCENARIO_LINES = {
    "agent_id_not_int": "agent = x A 0,0",
    "cell_not_r_c": "agent = 0 A 3",
    "route_id_not_int": "route = x 0,0",
    "hazard_without_enter": "hazard = lane=A path=0,1",
    "m_not_int": "m = ten",
    "rho_zero": "rho = 0",
    "m_negative": "m = -1",
    "l_comm_fraction_zero": "l_comm_fraction = 0",
    "bandwidth_nan": "channel_bandwidth_bytes_per_s = nan",
    "cell_size_nan": "cell_size_m = nan",
    "cell_size_negative": "cell_size_m = -10",
    "tick_budget_negative": "tick_budget = -5",
    "blocked_after_zero": "blocked_after = 0",
    "route_one_cell": "agent = 0 A 0,0\nroute = 0 0,0",
    "route_without_agent": "agent = 0 A 0,0\nroute = 0 0,0 0,1\nroute = 9 0,0 0,1",
    "agent_lane_c": "agent = 0 C 0,0\nroute = 0 0,0 0,1",
    "agent_id_twice": "agent = 0 A 0,0\nagent = 0 A 0,0\nroute = 0 0,0 0,1",
    "hazard_lane_c": "agent = 0 A 0,0\nroute = 0 0,0 0,1\nhazard = lane=C path=0,1 enter=1 clear=2",
    "agent_id_negative": "agent = -1 A 0,0\nroute = -1 0,0 0,1",
    "agent_id_past_u32": "agent = 4294967296 A 0,0\nroute = 4294967296 0,0 0,1",
    "grid_ragged": "grid = ...",
    "grid_not_road_or_wall": "grid = ..x.",
}


@pytest.mark.parametrize(
    "case",
    [f"scenario:{k}" for k in BAD_SCENARIO_LINES]
    + ["sweep:m_not_int", "sweep:paradigm_empty"]
    + [f"telemetry:{k}"
       for k in ("zero_bytes", "array_cut_short", "weight_above_1", "decision_nan")]
    + [f"file:{k}" for k in ("missing_scenario", "non_utf8_scenario", "missing_in",
                             "missing_payload", "analyze_out_is_a_file", "scenario_without_grid")],
)
def test_bad_input_is_one_error_line(tmp_path, occluded_path, capsys, case):
    kind, _, name = case.partition(":")
    missing = str(tmp_path / "missing")
    if kind == "file":
        (tmp_path / "latin1.laco").write_bytes("grid = ....\n# caf\u00e9\n".encode("latin-1"))
        (tmp_path / "t.bin").write_bytes(b"")
        (tmp_path / "no_grid.laco").write_text("m = 3\n")
        argv = {
            "missing_scenario": ["run", "--scenario", missing, "--out", str(tmp_path / "m.csv")],
            "non_utf8_scenario": ["run", "--scenario", str(tmp_path / "latin1.laco"),
                                  "--out", str(tmp_path / "m.csv")],
            "missing_in": ["analyze", "--in", missing, "--out", str(tmp_path / "diag")],
            "missing_payload": ["dump-payload", missing],
            "analyze_out_is_a_file": ["analyze", "--in", str(tmp_path / "t.bin"),
                                      "--out", str(tmp_path / "t.bin")],
            "scenario_without_grid": ["run", "--scenario", str(tmp_path / "no_grid.laco"),
                                      "--out", str(tmp_path / "m.csv")],
        }[name]
    elif kind == "scenario":
        path = tmp_path / "bad.laco"
        path.write_text(f"grid = ....\n{BAD_SCENARIO_LINES[name]}\n")
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "m.csv")]
    elif kind == "sweep":
        argv = ["sweep", "--param", "m", "--scenario", occluded_path, "--out", str(tmp_path / "s.csv"),
                *{"m_not_int": ["--values", "1.5"],
                  "paradigm_empty": ["--values", "1", "--paradigm", ""]}[name]]
    else:
        path = tmp_path / "bad.bin"
        path.write_bytes(bad_streams(tmp_path)[name])
        argv = ["analyze", "--in", str(path), "--out", str(tmp_path / "diag")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", ["occluded,1", "caf\u00e9"])
def test_a_name_the_csvs_cannot_hold_is_one_error_line(tmp_path, occluded_path, capsys,
                                                       monkeypatch, name, command):
    """A name with a ',' would add a CSV field, and a non-ASCII one cannot be
    written: either is rejected before any episode runs."""
    path = tmp_path / "named.laco"
    text = sc.builtin_scenario_path("occluded_1").read_text()
    path.write_text(text.replace("name = occluded_1", f"name = {name}"), encoding="utf-8")
    monkeypatch.setattr(sc, "Simulation", lambda *args: pytest.fail("an episode ran"))
    out = str(tmp_path / "out.csv")
    argv = {"run": ["run", "--scenario", str(path), "--out", out],
            "sweep": ["sweep", "--param", "m", "--values", "1", "--scenario", str(path), "--out", out]}
    assert main(argv[command]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: name must be printable ASCII"), err
    assert not (tmp_path / "out.csv").exists()


def test_a_second_run_parses_its_own_paradigm(tmp_path, occluded_path):
    """The process's one parser keeps nothing of a call: an overridden paradigm
    (here) or an appended ``--scenario`` list (below) does not reach the next call."""
    runs = []
    for extra in (["--paradigm", "Visual"], []):
        out = tmp_path / f"run{len(runs)}.csv"
        assert main(["run", "--scenario", occluded_path, "--out", str(out), *extra]) == 0
        runs.append(out.read_text().splitlines()[1])
    assert ",Visual," in runs[0] and ",LACO," in runs[1]


def test_a_second_sweep_parses_its_own_scenarios(tmp_path, occluded_path):
    sweeps = []
    for scenarios in ([occluded_path] * 2, [occluded_path]):
        out = tmp_path / f"sweep{len(sweeps)}.csv"
        assert main(["sweep", "--param", "m", "--values", "0", "--paradigm", "NonCollab",
                     "--out", str(out), *(a for p in scenarios for a in ("--scenario", p))]) == 0
        sweeps.append(out.read_text().splitlines()[1:])
    assert len(sweeps[0]) == 2 * len(sweeps[1]) > 0 and sweeps[0][: len(sweeps[1])] == sweeps[1]


def test_sweep_takes_several_scenarios_after_one_flag(tmp_path, occluded_path):
    """``--scenario a b`` (what a shell glob gives) and ``--scenario a --scenario b``
    write the same bytes."""
    other = str(sc.builtin_scenario_path("occluded_2"))
    outs = []
    for flags in (["--scenario", occluded_path, other],
                  ["--scenario", occluded_path, "--scenario", other]):
        out = tmp_path / f"sweep{len(outs)}.csv"
        assert main(["sweep", "--param", "m", "--values", "2", *flags, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert {line.split(",")[2] for line in outs[0].decode().splitlines()[1:]} == {
        "occluded_1", "occluded_2"}


def test_a_command_function_is_looked_up_at_each_call(monkeypatch, tmp_path):
    """The cached parser holds no command function: a ``_cmd_*`` replaced after
    a first call (as a tracer wraps it) is the one the next call runs."""
    assert main(["dump-payload", str(tmp_path / "missing.bin")]) == 1
    calls = []
    monkeypatch.setattr(cli, "_cmd_dump_payload", lambda args: calls.append(args.payload) or 0)
    assert main(["dump-payload", "a.bin"]) == 0 and calls == [["a.bin"]]
