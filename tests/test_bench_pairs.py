import importlib.util
import os

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
    assert tool.quartiles([0.5]) == (0.5, 0.5, 0.5)
