"""Name of the array backend; the finite-strain kernels live in ``energy``."""


def active_backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"
