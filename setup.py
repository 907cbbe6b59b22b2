"""Legacy setup shim.

All metadata lives in pyproject.toml.  Where the ``wheel`` package is
installed, ``pip install -e .`` (or, offline,
``pip install --no-use-pep517 --no-build-isolation --no-deps -e .``)
installs the package.  Without ``wheel`` neither pip route can build,
and ``python setup.py develop`` does the same editable install.
"""

from setuptools import setup

setup()
