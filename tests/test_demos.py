import hashlib
import runpy
from pathlib import Path

import pytest

from wfuse.rng import stream_for_run
from wfuse.simulate import run_similar_sizes

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# SHA-256 of each demo's stdout: a change that is meant to keep the
# numbers must keep these bytes.
DEMO_STDOUT_SHA256 = {
    "cost_curves": "4c7e0b51929a263b6bd7b5333f3168a0505255324e35e7f87fe8a2dd92aa561c",
    "gate_checks": "ab989e35103c5387a06c287a0f0918fb410f571869a23a7077f58535226193e4",
    "optimal_plans": "22a7e44cf507a57263466d12d56271e54c0196d40cd653d1425d501f7f0a1a8e",
    "similar_sizes_run": "2b624406cb37eb37076a5db9c028524d0b50e781279ed5820172384f8737f7f2",
    "strategy_comparison": "96b61785f07815f7a71494d7ffdee71ee15246ea7eade42b9fb55e1aabf82f84",
}


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
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_STDOUT_SHA256[path.stem]


def test_traced_run_agrees_with_kernel():
    traced_run = load(DEMOS / "similar_sizes_run.py")["traced_run"]
    result = run_similar_sizes(2, stream_for_run(2718, 0))
    assert traced_run(2, stream_for_run(2718, 0)) == (result.cost, result.final_size)
    assert (result.cost, result.final_size) == (64, 8)
