"""Setuptools shim.

All project metadata lives in ``pyproject.toml``.  Offline, install with
``pip install --no-build-isolation --no-deps -e .``, which builds from the
setuptools and ``wheel`` already installed.  Where ``wheel`` is missing,
``python setup.py develop`` (kept working by this file) installs the same
package and ``langcrux`` script.
"""

from setuptools import setup

setup()
