"""Package metadata for ``repro`` (the only build configuration).

With ``wheel`` available, ``pip install .`` or ``pip install -e .`` works.
Without it (an offline machine), pip cannot build, so install in development
mode from the checkout instead::

    python -m venv --system-site-packages .venv
    .venv/bin/python setup.py develop --no-deps

The venv reuses the system NumPy; ``--no-deps`` keeps setuptools from
trying to download anything.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Knowledge-compilation simulator for noisy variational quantum algorithms"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.api": ["costmodel_default.json"]},
    install_requires=["numpy"],
    python_requires=">=3.9",
)
