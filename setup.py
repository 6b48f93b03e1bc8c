"""Package metadata for ``pip install .`` / ``pip install -e .``.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  The version is read from ``src/repro/__init__.py``
without importing the package, so building needs nothing but setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
