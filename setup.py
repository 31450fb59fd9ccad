"""Setup shim so that ``pip install -e .`` works in offline environments.

All project metadata, the version included (read from
``repro.__version__``), lives in ``pyproject.toml``; this file only enables
the legacy editable-install path (``--no-use-pep517`` / environments without
the ``wheel`` package).
"""

from setuptools import setup

setup()
