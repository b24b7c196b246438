import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_of_fixed_pairs():
    tool = _tool()
    parent = [{"main_op_s": v, "setup_s": 0.12} for v in (0.06, 0.07, 0.05, 0.08)]
    change = [{"main_op_s": v, "setup_s": s}
              for v, s in ((0.04, 0.12), (0.03, 0.11), (0.06, 0.13), (0.02, 0.10))]
    summary = tool.summarize(parent, change)
    assert summary["main_op_s"]["parent"] == pytest.approx((0.0575, 0.065, 0.0725))
    assert summary["main_op_s"]["change"] == pytest.approx((0.0275, 0.035, 0.045))
    # pair 2 reads 0.06 against 0.05: the change is higher there
    assert summary["main_op_s"]["lower"] == 3
    assert summary["main_op_s"]["pairs"] == 4
    # ties count for neither side
    assert summary["setup_s"]["lower"] == 2
    # change median over parent median
    assert summary["main_op_s"]["ratio"] == pytest.approx(0.035 / 0.065)
    assert summary["setup_s"]["ratio"] == pytest.approx(0.115 / 0.12)
    assert tool.quartiles([0.5]) == (0.5, 0.5, 0.5)


# the printed lines of one `clagbench/run.py --workload verify` run
VERIFY_RUN = """\
# verify seed=0 trace=0 repetitions=1+0 traced; python=3.11.7, numpy=2.4.6, using_numba=False, CLAG_NO_NUMBA=None, CLAG_SIZE_GUARD=None, nproc=2, cpu=1
  accept_ms                                        3.0791 ms
  reject_ms                                        3.2946 ms
  project_s                                        0.0519 s
  wall_clock_s (unscaled wall_s)                   0.2442 s
  error_rate                                       0.0000 (0/15)
  setup_s                                          0.1121 s
  wall_s                                           0.1114 s
  peak_rss_mib                                    33.3789 MiB
  main_op_s                                        0.0413 s
{"correct": true, "attempted": 15, "failed": 0, "metrics": {"setup_s": {"value": 0.11208213679846109, "unit": "s"}, "wall_s": {"value": 0.111437058199858, "unit": "s"}, "peak_rss_mib": {"value": 33.37890625, "unit": "MiB"}, "main_op_s": {"value": 0.04132857940013062, "unit": "s"}}}
"""


def test_named_figures_of_a_fixed_run():
    tool = _tool()
    assert tool.named_figures(VERIFY_RUN) == {
        "accept_ms": 3.0791, "reject_ms": 3.2946, "project_s": 0.0519}
    # lines before the header are not figures
    assert tool.named_figures("warming up\n" + VERIFY_RUN)["project_s"] == 0.0519
    with pytest.raises(ValueError):
        tool.named_figures(VERIFY_RUN.split("  wall_clock_s")[0])


def test_each_run_gets_a_fresh_bytecode_cache(monkeypatch):
    tool = _tool()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = []

    def fake_run(argv, **kwargs):
        cache = kwargs["env"]["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(cache) and not os.listdir(cache)
        # the run may fill its own cache
        assert "PYTHONDONTWRITEBYTECODE" not in kwargs["env"]
        seen.append(cache)
        return subprocess.CompletedProcess(argv, 0, stdout=VERIFY_RUN,
                                           stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    for _ in range(2):
        res = tool.run_once("checkout", "verify", 0, 30)
        assert res["correct"] and res["metrics"]["project_s"] == 0.0519
    assert len(set(seen)) == 2
    assert not any(os.path.exists(cache) for cache in seen)


def test_operation_medians_of_the_stored_run_record(tmp_path, monkeypatch,
                                                   capsys):
    # each run's record is the one new file under the checkout's
    # .bench_out/runs/; --ops summarises its per-operation medians
    tool = _tool()
    runs = tmp_path / ".bench_out" / "runs"
    runs.mkdir(parents=True)
    (runs / "older.json").write_text(json.dumps(
        {"ops": [{"name": "verify_a", "seconds": [9.0]}]}))
    seconds = iter([[0.010, 0.012, 0.011], [0.002, 0.004, 0.003]] * 4)

    def fake_run(argv, **kwargs):
        record = {"ops": [{"name": "verify_a", "seconds": next(seconds)},
                          {"name": "verify_b", "seconds": [0.5]}]}
        (runs / f"run{len(os.listdir(runs))}.json").write_text(
            json.dumps(record))
        return subprocess.CompletedProcess(argv, 0, stdout=VERIFY_RUN,
                                           stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    res = tool.run_once(str(tmp_path), "verify", 0, 30)
    assert res["ops"] == {"verify_a": 0.011, "verify_b": 0.5}
    assert tool.op_medians({"ops": [{"name": "x", "seconds": [3, 1]}]}) == \
        {"x": 2}
    # pair 0 runs the parent first, pair 1 the change
    assert tool.main([str(tmp_path), str(tmp_path), "--workload", "verify",
                      "--pairs", "2", "--ops"]) == 0
    out = capsys.readouterr().out.split("# per operation")[1].splitlines()
    assert out[1].split()[:5] == ["verify_a", "parent", "0.0070",
                                  "[0.0050,", "0.0090]"]
    assert "change lower 1/2" in out[1] and "ratio 1.000" in out[2]
