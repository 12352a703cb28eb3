from hpcolor.geometry import orientation
from hpcolor.kernels import ACTIVE


def test_python_kernel_signs():
    assert ACTIVE == "python"
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (1, 0), (2, 0)) == 0
    assert orientation((0, 0), (1, 1), (2, 1)) == -1
