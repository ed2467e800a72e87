"""Setuptools entry point.

A bare shim: the repository carries no ``pyproject.toml`` / ``setup.cfg``
metadata, so this declares nothing.  The package is used straight from the
``src/`` layout — ``PYTHONPATH=src python ...``, which the root
``conftest.py`` also arranges for pytest — and needs only NumPy at run time.
"""

from setuptools import setup

setup()
