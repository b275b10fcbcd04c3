"""The package's public surface: the names ``bordersub`` exports and the
CLI's top-level help."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import bordersub

PUBLIC_NAMES = [
    "BordersubError", "CapExceededError", "CertificateVerdict", "ComponentEnumeration",
    "DimensionMismatchError", "FeasibilityOutcome", "InternalError", "InvalidValueError",
    "LieTriple", "Monomial", "OrbitVerdict", "PreconditionError", "SliceFamily",
    "StructureReport", "Support", "Symmetry", "TangentReport", "Tensor3", "TightWitness", "TorusWeight",
    "act", "apply_gl", "backend_name", "binary_cocharacter", "build_W",
    "build_tight_U", "check_degeneration_certificate", "check_tight_witness",
    "cone_stabilizer_dim", "cone_stabilizer_structure", "diagonal_support",
    "duality_degree_cap", "enumerate_maximal_components", "exhaustive_tight_search",
    "find_tight_witness", "generator_family", "has_invariant_monomial_within",
    "invariant_monomials_within", "is_concise", "is_maximal_nullcone_support",
    "is_torus_invariant", "nullcone_feasible", "orbit_cone_tangent_dim", "orbit_dim_unit",
    "positive_support", "qmax_dimension_bound", "sample_coefficients", "sample_support",
    "slices_along_a", "slices_along_b", "stabilizer_basis", "stabilizer_dim",
    "tensor_from_support", "unit_orbit_member", "unit_tensor", "weight_of",
]


def test_public_names():
    assert sorted(bordersub.__all__) == PUBLIC_NAMES
    # not exported, but reachable as attributes (perfbench/layertrace.py reads them)
    for name in ("errors", "linalg", "monomials", "nullcone", "orbit", "simplex", "stabilizer", "tensors", "tight", "weights"):
        assert isinstance(getattr(bordersub, name), ModuleType)
    assert bordersub.backend_name() == "python"


def test_cli_help_names_the_backend():
    src = str(Path(bordersub.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "bordersub.cli", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == ""
    text = " ".join(proc.stdout.split())
    assert "subrank of n x n x n tensors (kernel backend: python). positional arguments:" in text
