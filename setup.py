"""Legacy setup shim for offline editable installs (no `wheel` package)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Scalable and Secure Row-Swap' (HPCA 2023): RRS, "
        "SRS, Scale-SRS, and the Juggernaut attack on a Python DDR4 "
        "memory-system simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
