"""Command dispatch and deterministic result reports.

Every command takes a scenario file and emits a ResultDocument, as text or
JSON.  Serialization is byte-identical for a fixed scenario, seed and
package version: floats are printed with 17 significant digits and all key
orders are fixed.  Exit codes: 0 all checks passed, 1 some check failed,
2 malformed input.  ``main()`` reuses one argument parser per process: it is
built on the first call, not at import.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, harness
from .curvature import (
    SIGN_CONVENTION_NOTE,
    correspondence_report,
    curvature_report,
    external_product_defect,
    external_product_defect_ungraded,
    validate_vertical,
)
from .fgpmod import (
    connection_operators,
    spectrum,
    validate_connection,
    validate_module,
)
from .forms import junk_space, one_form_space, two_form_space
from .glinalg import (
    DEFAULT_RANK_TOL,
    membership_residual,
    orthonormality_defect,
    relative_distance,
    spectral_norm,
    support_residual,
)
from .scenario import Scenario, ScenarioError, parse_scenario, settings
from .submersion import submersion_invariants, jacobi_residual
from .triple import DEFAULT_TOL, Check, InvariantViolation, validate

__all__ = ["ResultDocument", "main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

SUBMERSION_INDEX_NOTE = (
    "submersion index conventions: S_pi[a][b][i] and Omega[i][j][a] with "
    "a, b vertical and i, j horizontal, all 0-based, vertical frame first"
)


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if not math.isfinite(x):
        return json.dumps(x)  # NaN, Infinity or -Infinity, which json.loads reads
    return format(x, ".17g")


def _dumps(obj) -> str:
    """Deterministic JSON with fixed 17-significant-digit float formatting."""
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_payload(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _tensor_payload(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=float).tolist()


def _check_payload(c: Check) -> dict:
    return {
        "name": c.name,
        "value": float(c.value),
        "op": c.op,
        "threshold": float(c.threshold),
        "passed": bool(c.passed),
    }


@dataclass
class ResultDocument:
    command: str
    scenario_digest: str
    seed: int
    version: str
    checks: list[Check] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    matrices: dict | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = {
            "command": self.command,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "version": self.version,
            "passed": self.passed,
            "checks": [_check_payload(c) for c in self.checks],
            "values": self.values,
            "notes": list(self.notes),
        }
        if self.matrices is not None:
            doc["matrices"] = self.matrices
        return doc

    def to_json(self) -> str:
        return _dumps(self.to_dict())

    def to_text(self) -> str:
        lines = [
            f"command:  {self.command}",
            f"scenario: {self.scenario_digest}",
            f"seed:     {self.seed}   version: {self.version}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.checks:
            lines.append("checks:")
            lines.extend("  " + str(c) for c in self.checks)
        if self.values:
            lines.append("values:")
            for k, v in self.values.items():
                if isinstance(v, float):
                    lines.append(f"  {k} = {_fmt_float(v)}")
                else:
                    lines.append(f"  {k} = {_dumps(v)}")
        if self.matrices:
            lines.append("matrices:")
            for k, v in self.matrices.items():
                lines.append(f"  {k} = {_dumps(v)}")
        lines.append("result: " + ("all checks passed" if self.passed else "CHECK FAILURE"))
        return "\n".join(lines)


def _need(scen: Scenario, attr: str, command: str):
    value = getattr(scen, attr)
    if value is None:
        raise ScenarioError(f"{command}: scenario has no '{attr}' section")
    return value


def _cmd_validate(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    checks = validate(scen.triple, tol, rank_tol)
    values = {"n": scen.triple.n, "d": scen.triple.d}
    if scen.module is not None:
        checks += validate_module(scen.module, tol)
        values["m"] = scen.module.m
    if scen.connection is not None:
        checks += validate_connection(scen.module, scen.connection, tol)
    if scen.vertical is not None:
        checks += validate_vertical(scen.vertical, tol)
    if scen.triple2 is not None:
        checks += [Check("triple2." + c.name, c.value, c.threshold, c.op)
                   for c in validate(scen.triple2, tol, rank_tol)]
    return checks, values, None, []


def _cmd_forms(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    one = one_form_space(scen.triple, rank_tol)
    two = two_form_space(scen.triple, rank_tol)
    checks = [
        Check("one_form_basis_orthonormal", orthonormality_defect(one.basis), 1e-10),
        Check("two_form_basis_orthonormal", orthonormality_defect(two.basis), 1e-10),
    ]
    values = {"one_form_dim": one.dim, "two_form_dim": two.dim}
    return checks, values, None, []


def _cmd_junk(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    one = one_form_space(scen.triple, rank_tol)
    two = two_form_space(scen.triple, rank_tol)
    junk = junk_space(scen.triple, rank_tol)
    member = float(np.max([membership_residual(j, two.basis) for j in junk.basis], initial=0.0))
    checks = [Check("junk_inside_two_forms", member, tol)]
    values = {
        "one_form_dim": one.dim,
        "two_form_dim": two.dim,
        "junk_dim": junk.dim,
    }
    return checks, values, None, []


def _cmd_curvature(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    module = _need(scen, "module", "curvature")
    junk = junk_space(scen.triple, rank_tol)
    report = curvature_report(module, scen.connection, junk=junk, tol=tol)
    checks = [
        Check("route_residual", report.route_residual, tol),
        Check("curvature_even", report.evenness_residual, tol),
        Check("curvature_support", report.support_residual, tol),
    ]
    hermitian = scen.connection is None or scen.connection.hermitian
    if hermitian:
        checks.append(Check("curvature_symmetric", report.symmetry_residual, tol))
    values = {"norm": report.norm, "junk_dim": junk.dim}
    matrices = None
    if emit:
        matrices = {
            "curvature": _matrix_payload(report.R),
            "junk_canonical": _matrix_payload(report.junk_canonical),
        }
    return checks, values, matrices, [SIGN_CONVENTION_NOTE]


def _cmd_correspondence(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    module = _need(scen, "module", "correspondence")
    vertical = _need(scen, "vertical", "correspondence")
    corr = correspondence_report(module, scen.connection, vertical, tol)
    checks = corr.vertical_checks + [
        Check("correspondence_decomposition", corr.decomposition_residual, tol)]
    values = {"norm": spectral_norm(corr.curvature), "wac_diagnostic": corr.wac}
    matrices = {"correspondence_curvature": _matrix_payload(corr.curvature)} if emit else None
    return checks, values, matrices, [SIGN_CONVENTION_NOTE]


def _cmd_external(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    st2 = _need(scen, "triple2", "external")
    defect = external_product_defect(scen.triple, st2)
    control = external_product_defect_ungraded(scen.triple, st2)
    bound = (spectral_norm(scen.triple.dirac) + spectral_norm(st2.dirac)) ** 2
    defect_norm = spectral_norm(defect)
    checks = [Check("external_product_defect", defect_norm, 1e-12 * bound)]
    values = {
        "defect_norm": defect_norm,
        "bound": bound,
        "ungraded_control_norm": spectral_norm(control),
    }
    matrices = {"defect": _matrix_payload(defect)} if emit else None
    return checks, values, matrices, []


def _cmd_product_spectrum(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    module = _need(scen, "module", "product-spectrum")
    ops = connection_operators(module, scen.connection, tol)
    m_op = ops.m_op
    checks = [
        Check("product_op_support", support_residual(module.projector, m_op), tol),
        Check("product_op_odd", module.parity_residual(m_op, odd=True), tol),
        Check("product_op_symmetric", relative_distance(m_op, m_op.conj().T), tol),
    ]
    eigs = spectrum(module, ops, tol)
    values = {"rank": len(eigs), "spectrum": eigs}
    return checks, values, None, []


def _cmd_submersion(scen: Scenario, tol: float, rank_tol: float, seed: int, emit: bool):
    frame = _need(scen, "frame", "submersion")
    inv = submersion_invariants(frame)
    sym = float(np.max(np.abs(inv.S_pi - np.transpose(inv.S_pi, (1, 0, 2))))) \
        if inv.S_pi.size else 0.0
    antisym = float(np.max(np.abs(inv.Omega + np.transpose(inv.Omega, (1, 0, 2))))) \
        if inv.Omega.size else 0.0
    checks = [
        Check("second_fundamental_symmetric", sym, 1e-12),
        Check("fibration_curvature_antisymmetric", antisym, 1e-12),
    ]
    jacobi = jacobi_residual(frame)
    if scen.frame_is_canned:
        checks.append(Check("jacobi_identity", jacobi, 1e-12))
    values = {
        "dim_total": frame.dim_total,
        "dim_fiber": frame.dim_fiber,
        "jacobi_residual": jacobi,
        "second_fundamental_form": _tensor_payload(inv.S_pi),
        "mean_curvature": _tensor_payload(inv.k),
        "fibration_curvature": _tensor_payload(inv.Omega),
    }
    return checks, values, None, [SUBMERSION_INDEX_NOTE]


def _cmd_selftest(scen: Scenario | None, tol: float, rank_tol: float, seed: int, emit: bool):
    values = {"seed": seed, "scenarios_per_family": harness.SCENARIOS_PER_FAMILY}
    return harness.selftest(seed), values, None, []


_HANDLERS = {
    "validate": _cmd_validate,
    "forms": _cmd_forms,
    "junk": _cmd_junk,
    "curvature": _cmd_curvature,
    "correspondence": _cmd_correspondence,
    "external": _cmd_external,
    "product-spectrum": _cmd_product_spectrum,
    "submersion": _cmd_submersion,
    "selftest": _cmd_selftest,
}
COMMANDS = tuple(_HANDLERS)


def run(command: str, scen: Scenario | None, tol: float | None = None,
        rank_tol: float | None = None, seed: int | None = None,
        emit_matrices: bool = False) -> ResultDocument:
    """Dispatch one command against a parsed scenario."""
    handler = _HANDLERS.get(command)
    if handler is None:
        raise ScenarioError(f"unknown command {command!r}")
    if command != "selftest" and scen is None:
        raise ScenarioError(f"{command}: a scenario file is required")

    tol, rank_tol, seed = settings(scen, tol, rank_tol, seed)
    doc = ResultDocument(
        command=command,
        scenario_digest=scen.digest if scen is not None else "none",
        seed=seed,
        version=__version__,
    )
    try:
        checks, values, matrices, notes = handler(scen, tol, rank_tol, seed, emit_matrices)
    except InvariantViolation as exc:
        doc.checks.append(exc.check)
        doc.notes.append(f"aborted: {exc}")
        return doc

    doc.checks.extend(checks)
    doc.values.update(values)
    doc.matrices = matrices
    doc.notes.extend(notes)
    return doc


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and then reused."""
    parser = argparse.ArgumentParser(
        prog="ncgcurv",
        description="Curvature workbench for finite-dimensional spectral triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} computation")
        if name == "selftest":
            cmd.add_argument("scenario", nargs="?", default=None,
                             help="optional scenario file (supplies the seed)")
        else:
            cmd.add_argument("scenario", help="scenario JSON file")
        cmd.add_argument("--tol", type=float, default=None,
                         help=f"residual tolerance (default {DEFAULT_TOL:g} or scenario value)")
        cmd.add_argument("--rank-tol", type=float, default=None,
                         help=f"rank threshold (default {DEFAULT_RANK_TOL:g} or scenario value)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="seed override for randomized checks")
        cmd.add_argument("--emit-matrices", action="store_true",
                         help="include matrix payloads in the report")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        scen = parse_scenario(args.scenario) if args.scenario is not None else None
        doc = run(args.command, scen, tol=args.tol, rank_tol=args.rank_tol,
                  seed=args.seed, emit_matrices=args.emit_matrices)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    print(doc.to_json() if args.format == "json" else doc.to_text())
    return EXIT_OK if doc.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
