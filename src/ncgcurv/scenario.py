"""Scenario files: JSON ingestion with precise diagnostics.

A scenario is a UTF-8 JSON object bundling a spectral triple with optional
module, connection, vertical-operator, second-triple and frame-point data,
plus tolerances and a seed.  Complex scalars are written as two-element
arrays [re, im] (a bare number means a real scalar); matrices are nested
row-major arrays; algebra elements are flat coefficient arrays over the
declared basis order.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curvature import VerticalOperator
from .fgpmod import ConnectionForm, ProjectiveModule
from .glinalg import DEFAULT_RANK_TOL
from .submersion import FramePoint, canned_frame
from .triple import DEFAULT_TOL, SpectralTriple

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "scenario_digest"]


class ScenarioError(ValueError):
    """Malformed scenario input; the message names the offending field."""


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _tolerance(value, path: str) -> float:
    """A finite positive number: with inf every check passes, with NaN every one fails."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value <= sys.float_info.max):
        raise _fail(path, f"expected a finite positive number, got {value!r}")
    return float(value)


def _complex(node, path: str) -> complex:
    if isinstance(node, bool):
        raise _fail(path, "expected a number or [re, im] pair, got a boolean")
    if isinstance(node, (int, float)):
        return complex(node)
    if isinstance(node, list) and len(node) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in node):
        return complex(node[0], node[1])
    raise _fail(path, f"expected a number or [re, im] pair, got {node!r}")


def _vector(node, path: str, length: int | None = None) -> np.ndarray:
    if not isinstance(node, list):
        raise _fail(path, "expected an array")
    vec = np.array([_complex(x, f"{path}[{k}]") for k, x in enumerate(node)])
    if length is not None and vec.shape != (length,):
        raise _fail(path, f"expected length {length}, got {len(vec)}")
    return vec


def _matrix(node, path: str, square: bool = True) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of rows")
    rows = []
    width = None
    for r, row in enumerate(node):
        if not isinstance(row, list):
            raise _fail(f"{path}[{r}]", "expected an array row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _fail(f"{path}[{r}]",
                        f"ragged matrix: row has length {len(row)}, expected {width}")
        rows.append([_complex(x, f"{path}[{r}][{k}]") for k, x in enumerate(row)])
    mat = np.array(rows)
    if square and mat.shape[0] != mat.shape[1]:
        raise _fail(path, f"expected a square matrix, got shape {mat.shape}")
    return mat


def _parse_triple(node, path: str) -> SpectralTriple:
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    for key in ("gamma", "basis", "dirac"):
        if key not in node:
            raise _fail(path, f"missing required field {key!r}")
    gamma = _matrix(node["gamma"], f"{path}.gamma")
    n = gamma.shape[0]
    if "n" in node and node["n"] != n:
        raise _fail(f"{path}.n", f"declared n={node['n']} but gamma is {n}x{n}")
    if not isinstance(node["basis"], list) or not node["basis"]:
        raise _fail(f"{path}.basis", "expected a nonempty array of matrices")
    basis = []
    for k, b in enumerate(node["basis"]):
        mat = _matrix(b, f"{path}.basis[{k}]")
        if mat.shape != (n, n):
            raise _fail(f"{path}.basis[{k}]",
                        f"expected a {n}x{n} matrix, got {mat.shape}")
        basis.append(mat)
    dirac = _matrix(node["dirac"], f"{path}.dirac")
    if dirac.shape != (n, n):
        raise _fail(f"{path}.dirac", f"expected a {n}x{n} matrix, got {dirac.shape}")
    try:
        return SpectralTriple(gamma, tuple(basis), dirac)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_coeff_table(node, path: str, m: int, d: int) -> np.ndarray:
    """(m, m) outer grid whose cells are flat length-d coefficient arrays."""
    if not isinstance(node, list) or len(node) != m:
        raise _fail(path, f"expected {m} rows of coefficient vectors")
    out = np.zeros((m, m, d), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != m:
            raise _fail(f"{path}[{i}]", f"expected {m} coefficient vectors")
        for j, cell in enumerate(row):
            out[i, j] = _vector(cell, f"{path}[{i}][{j}]", d)
    return out


def _parse_module(node, path: str, st: SpectralTriple) -> ProjectiveModule:
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    for key in ("gamma_signs", "p"):
        if key not in node:
            raise _fail(path, f"missing required field {key!r}")
    signs = node["gamma_signs"]
    if not isinstance(signs, list) or not signs:
        raise _fail(f"{path}.gamma_signs", "expected a nonempty array of +1/-1")
    m = len(signs)
    if "m" in node and node["m"] != m:
        raise _fail(f"{path}.m", f"declared m={node['m']} but gamma_signs has {m}")
    for k, s in enumerate(signs):
        if s not in (1, -1):
            raise _fail(f"{path}.gamma_signs[{k}]", f"expected +1 or -1, got {s!r}")
    p = _parse_coeff_table(node["p"], f"{path}.p", m, st.d)
    try:
        return ProjectiveModule(st, p, np.array(signs, dtype=float))
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_connection(node, path: str, module: ProjectiveModule) -> ConnectionForm:
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    if "entries" not in node:
        raise _fail(path, "missing required field 'entries'")
    hermitian = node.get("hermitian", False)
    if not isinstance(hermitian, bool):
        raise _fail(f"{path}.hermitian", "expected a boolean")
    m, d = module.m, module.triple.d
    grid = node["entries"]
    if not isinstance(grid, list) or len(grid) != m:
        raise _fail(f"{path}.entries", f"expected {m} rows of {d}x{d} tables")
    entries = np.zeros((m, m, d, d), dtype=complex)
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != m:
            raise _fail(f"{path}.entries[{i}]", f"expected {m} tables")
        for j, cell in enumerate(row):
            tab = _matrix(cell, f"{path}.entries[{i}][{j}]")
            if tab.shape != (d, d):
                raise _fail(f"{path}.entries[{i}][{j}]",
                            f"expected a {d}x{d} coefficient table, got {tab.shape}")
            entries[i, j] = tab
    try:
        return ConnectionForm(module, entries, hermitian=hermitian)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_vertical(node, path: str, module: ProjectiveModule) -> VerticalOperator:
    if not isinstance(node, dict) or "entries" not in node:
        raise _fail(path, "expected an object with an 'entries' table")
    entries = _parse_coeff_table(node["entries"], f"{path}.entries",
                                 module.m, module.triple.d)
    try:
        return VerticalOperator(module, entries)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_frame(node, path: str) -> tuple[FramePoint, bool]:
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    if "canned" in node:
        name = node["canned"]
        params = node.get("params", {})
        if not isinstance(params, dict):
            raise _fail(f"{path}.params", "expected an object of parameters")
        try:
            return canned_frame(name, **params), True
        except (TypeError, ValueError) as exc:
            raise _fail(path, str(exc)) from exc
    for key in ("dim", "dim_fiber", "c"):
        if key not in node:
            raise _fail(path, f"missing required field {key!r}")
    dim = node["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise _fail(f"{path}.dim", f"expected an integer >= 2, got {dim!r}")
    dim_fiber = node["dim_fiber"]
    if not isinstance(dim_fiber, int) or isinstance(dim_fiber, bool):
        raise _fail(f"{path}.dim_fiber", f"expected an integer, got {dim_fiber!r}")
    c = np.zeros((dim, dim, dim))
    table = node["c"]
    if not isinstance(table, list) or len(table) != dim:
        raise _fail(f"{path}.c", f"expected {dim} slices")
    for k, slab in enumerate(table):
        mat = _matrix(slab, f"{path}.c[{k}]")
        if mat.shape != (dim, dim):
            raise _fail(f"{path}.c[{k}]", f"expected {dim}x{dim}, got {mat.shape}")
        if np.any(np.abs(mat.imag) > 0):
            raise _fail(f"{path}.c[{k}]", "structure constants must be real")
        c[k] = mat.real
    try:
        return FramePoint(dim, dim_fiber, c), False
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    """Parsed, mutually consistent scenario data."""

    triple: SpectralTriple
    module: ProjectiveModule | None
    connection: ConnectionForm | None
    vertical: VerticalOperator | None
    triple2: SpectralTriple | None
    frame: FramePoint | None
    frame_is_canned: bool
    residual_tol: float
    rank_tol: float
    seed: int
    digest: str


def scenario_digest(raw: dict) -> str:
    """Content hash: sha256 over the canonical JSON encoding."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_scenario(source) -> Scenario:
    """Parse a scenario from a path, JSON text, or an already-loaded dict."""
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    if "triple" not in raw:
        raise ScenarioError("scenario: missing required field 'triple'")

    st = _parse_triple(raw["triple"], "triple")
    module = _parse_module(raw["module"], "module", st) if "module" in raw else None

    connection = None
    if "connection" in raw:
        if module is None:
            raise ScenarioError("connection: requires a 'module' section")
        connection = _parse_connection(raw["connection"], "connection", module)

    vertical = None
    if "vertical" in raw:
        if module is None:
            raise ScenarioError("vertical: requires a 'module' section")
        vertical = _parse_vertical(raw["vertical"], "vertical", module)

    triple2 = _parse_triple(raw["triple2"], "triple2") if "triple2" in raw else None

    frame = None
    frame_is_canned = False
    if "frame" in raw:
        frame, frame_is_canned = _parse_frame(raw["frame"], "frame")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances: expected an object")
    residual_tol = _tolerance(tolerances.get("residual_tol", DEFAULT_TOL),
                              "tolerances.residual_tol")
    rank_tol = _tolerance(tolerances.get("rank_tol", DEFAULT_RANK_TOL), "tolerances.rank_tol")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed: expected a nonnegative integer")

    return Scenario(
        triple=st,
        module=module,
        connection=connection,
        vertical=vertical,
        triple2=triple2,
        frame=frame,
        frame_is_canned=frame_is_canned,
        residual_tol=residual_tol,
        rank_tol=rank_tol,
        seed=seed,
        digest=scenario_digest(raw),
    )
