from hpcolor.kernels import orient


def test_python_kernel_signs():
    assert orient(0, 0, 1, 0, 0, 1) == 1
    assert orient(0, 0, 1, 0, 2, 0) == 0
    assert orient(0, 0, 1, 1, 2, 1) == -1
