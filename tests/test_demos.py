import runpy
from pathlib import Path

import pytest

from wfuse.rng import stream_for_run
from wfuse.simulate import run_similar_sizes

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(path):
    # Any run_name but "__main__" defines the demo's names without running main().
    return runpy.run_path(str(path), run_name="demo")


each_demo = pytest.mark.parametrize(
    "path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem
)


@each_demo
def test_demo_loads(path):
    assert callable(load(path)["main"])


@each_demo
def test_demo_runs(path, capsys):
    load(path)["main"]()
    assert capsys.readouterr().out


def test_traced_run_agrees_with_kernel():
    traced_run = load(DEMOS / "similar_sizes_run.py")["traced_run"]
    result = run_similar_sizes(2, stream_for_run(2718, 0))
    assert traced_run(2, stream_for_run(2718, 0)) == (result.cost, result.final_size)
    assert (result.cost, result.final_size) == (64, 8)
