"""Scenario files: JSON ingestion with precise diagnostics.

A scenario is a UTF-8 JSON object bundling a spectral triple with optional
module, connection, vertical-operator, second-triple and frame-point data,
plus tolerances and a seed.  Complex scalars are written as two-element
arrays [re, im] (a bare number means a real scalar); matrices are nested
row-major arrays; algebra elements are flat coefficient arrays over the
declared basis order.  Every section is read through one object check
(``_object``) and built through one guard (``_built``) that turns the
constructor's error into a :class:`ScenarioError` at the section's path.

:func:`settings` resolves the tolerances and the seed of a run: a checked
override wins over the scenario's value, which wins over the default.
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

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "scenario_digest", "settings"]


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


def _seed(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise _fail(path, "expected a nonnegative integer")
    return value


def _complex(node, path: str) -> complex:
    if isinstance(node, bool):
        raise _fail(path, "expected a number or [re, im] pair, got a boolean")
    if isinstance(node, (int, float)):
        return complex(node)
    if isinstance(node, list) and len(node) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in node):
        return complex(node[0], node[1])
    raise _fail(path, f"expected a number or [re, im] pair, got {node!r}")


def _array(node, path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Nested arrays of complex scalars, checked level by level against ``shape``."""

    def nested(node, path: str, shape: tuple[int, ...]):
        if not shape:
            return _complex(node, path)
        if not isinstance(node, list) or not node:
            raise _fail(path, "expected a nonempty array")
        if len(node) != shape[0]:
            raise _fail(path, f"expected length {shape[0]}, got {len(node)}")
        return [nested(x, f"{path}[{k}]", shape[1:]) for k, x in enumerate(node)]

    return np.array(nested(node, path, shape), dtype=complex)


def _matrix(node, path: str) -> np.ndarray:
    """A square matrix whose size is read from the input."""
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of rows")
    for r, row in enumerate(node):
        if not isinstance(row, list):
            raise _fail(f"{path}[{r}]", "expected an array row")
        if len(row) != len(node[0]):
            raise _fail(f"{path}[{r}]", f"ragged matrix: row has length {len(row)}, "
                                        f"expected {len(node[0])}")
    if len(node) != len(node[0]):
        raise _fail(path, f"expected a square matrix, got shape {(len(node), len(node[0]))}")
    return _array(node, path, (len(node), len(node)))


def _object(node, path: str, *required: str, only: tuple[str, ...] | None = None) -> dict:
    """A JSON object holding every ``required`` field and, given ``only``, no other field."""
    if not isinstance(node, dict):
        raise _fail(path, "expected an object")
    for key in required:
        if key not in node:
            raise _fail(path, f"missing required field {key!r}")
    for key in node if only is not None else ():
        if key not in only:
            raise _fail(path, f"unknown field {key!r}")
    return node


def _built(path: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``; its TypeError or ValueError becomes a ScenarioError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _parse_triple(node, path: str) -> SpectralTriple:
    _object(node, path, "gamma", "basis", "dirac")
    gamma = _matrix(node["gamma"], f"{path}.gamma")
    n = gamma.shape[0]
    # an integer: JSON true and 2.0 compare equal to 1 and 2 but are not sizes
    if "n" in node and (type(node["n"]) is not int or node["n"] != n):
        raise _fail(f"{path}.n", f"declared n={node['n']!r}, expected the integer {n} "
                                 f"(gamma is {n}x{n})")
    d = len(node["basis"]) if isinstance(node["basis"], list) else 0
    basis = _array(node["basis"], f"{path}.basis", (d, n, n))
    dirac = _array(node["dirac"], f"{path}.dirac", (n, n))
    return _built(path, SpectralTriple, gamma, basis, dirac)


def _parse_module(node, path: str, st: SpectralTriple) -> ProjectiveModule:
    signs = _object(node, path, "gamma_signs", "p")["gamma_signs"]
    if not isinstance(signs, list) or not signs:
        raise _fail(f"{path}.gamma_signs", "expected a nonempty array of +1/-1")
    m = len(signs)
    if "m" in node and (type(node["m"]) is not int or node["m"] != m):
        raise _fail(f"{path}.m", f"declared m={node['m']!r}, expected the integer {m} "
                                 f"(gamma_signs has {m})")
    for k, s in enumerate(signs):
        # an integer: JSON true and 1.0 compare equal to 1 but are not signs
        if type(s) is not int or s not in (1, -1):
            raise _fail(f"{path}.gamma_signs[{k}]", f"expected the integer 1 or -1, got {s!r}")
    p = _array(node["p"], f"{path}.p", (m, m, st.d))
    return _built(path, ProjectiveModule, st, p, np.array(signs, dtype=float))


def _parse_connection(node, path: str, module: ProjectiveModule) -> ConnectionForm:
    hermitian = _object(node, path, "entries").get("hermitian", False)
    if not isinstance(hermitian, bool):
        raise _fail(f"{path}.hermitian", "expected a boolean")
    m, d = module.m, module.triple.d
    entries = _array(node["entries"], f"{path}.entries", (m, m, d, d))
    return _built(path, ConnectionForm, module, entries, hermitian)


def _parse_vertical(node, path: str, module: ProjectiveModule) -> VerticalOperator:
    m, d = module.m, module.triple.d
    entries = _array(_object(node, path, "entries")["entries"], f"{path}.entries", (m, m, d))
    return _built(path, VerticalOperator, module, entries)


def _parse_frame(node, path: str) -> tuple[FramePoint, bool]:
    if "canned" in _object(node, path):
        params = node.get("params", {})
        if not isinstance(params, dict):
            raise _fail(f"{path}.params", "expected an object of parameters")
        for key, value in params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise _fail(f"{path}.params.{key}", f"expected a number, got {value!r}")
        return _built(path, canned_frame, node["canned"], **params), True
    _object(node, path, "dim", "dim_fiber", "c")
    dim = node["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise _fail(f"{path}.dim", f"expected an integer >= 2, got {dim!r}")
    dim_fiber = node["dim_fiber"]
    if not isinstance(dim_fiber, int) or isinstance(dim_fiber, bool):
        raise _fail(f"{path}.dim_fiber", f"expected an integer, got {dim_fiber!r}")
    c = _array(node["c"], f"{path}.c", (dim, dim, dim))
    complex_at = np.argwhere(c.imag != 0)
    if complex_at.size:
        raise _fail(f"{path}.c" + "".join(f"[{k}]" for k in complex_at[0]),
                    "structure constants must be real")
    return _built(path, FramePoint, dim, dim_fiber, c.real.copy()), False


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
    """Parse a scenario from a path or an already-loaded dict."""
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
    _object(raw, "scenario", "triple", only=("triple", "module", "connection", "vertical",
                                             "triple2", "frame", "tolerances", "seed"))

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

    frame, frame_is_canned = (_parse_frame(raw["frame"], "frame") if "frame" in raw
                              else (None, False))

    tolerances = _object(raw.get("tolerances", {}), "tolerances",
                         only=("residual_tol", "rank_tol"))
    residual_tol = _tolerance(tolerances.get("residual_tol", DEFAULT_TOL),
                              "tolerances.residual_tol")
    rank_tol = _tolerance(tolerances.get("rank_tol", DEFAULT_RANK_TOL), "tolerances.rank_tol")

    seed = _seed(raw.get("seed", 0), "seed")

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


def settings(scen: Scenario | None, tol, rank_tol, seed) -> tuple[float, float, int]:
    """(tol, rank_tol, seed): an override (None for none), checked, wins over the
    scenario's value, which wins over the default."""
    if scen is None:
        base = DEFAULT_TOL, DEFAULT_RANK_TOL, 0
    else:
        base = scen.residual_tol, scen.rank_tol, scen.seed
    return (base[0] if tol is None else _tolerance(tol, "--tol"),
            base[1] if rank_tol is None else _tolerance(rank_tol, "--rank-tol"),
            base[2] if seed is None else _seed(seed, "--seed"))
