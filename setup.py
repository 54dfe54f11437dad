"""Package metadata.

Declared here rather than in a ``pyproject.toml`` so that
``pip install --no-build-isolation -e .`` works in fully offline
environments: with no ``[build-system]`` table to satisfy, pip builds with
the setuptools already installed and needs no network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro-trace",
    version="1.0.0",
    description="Similarity-based trace reduction (Mohror & Karavanic, SC 2009)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-trace = repro.cli:main"]},
)
