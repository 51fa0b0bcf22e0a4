"""Span tracer that wraps ncgcurv's public functions from outside the package.

The tracer replaces each listed function by a timing wrapper, both where it
is defined and under every name an ``ncgcurv`` module imported it as, so
calls between library modules are recorded too.  A name that no longer
exists is skipped (its metrics then read zero), so deleting a function from
the library does not break the benchmark.

Spans are kept in memory as tuples

    (name, pass_id, op_id, parent, start, end, failed, extra)

where ``parent`` is the index of the enclosing span (-1 at top level) and
``extra`` holds the few input facts the count metrics need.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import json
import sys
import time

# (module, attribute path, metric prefix).  A dotted attribute path names a
# method; "mult_tensor" is a cached property and keeps the short prefix used
# in the benchmark notes.
TARGETS = (
    ("glinalg", "subspace_basis", "glinalg.subspace_basis"),
    ("glinalg", "solve_kernel", "glinalg.solve_kernel"),
    ("triple", "SpectralTriple.coords", "triple.SpectralTriple.coords"),
    ("triple", "SpectralTriple.mult_tensor", "triple.mult_tensor"),
    ("forms", "junk_space", "forms.junk_space"),
    ("forms", "kernel_one_forms", "forms.kernel_one_forms"),
    ("forms", "universal_form_basis", "forms.universal_form_basis"),
    ("fgpmod", "represent_connection", "fgpmod.represent_connection"),
    ("fgpmod", "validate_connection", "fgpmod.validate_connection"),
    ("fgpmod", "ConnectionForm.compressed", "fgpmod.ConnectionForm.compressed"),
    ("fgpmod", "ConnectionForm.represented", "fgpmod.ConnectionForm.represented"),
    ("curvature", "lifted_junk_basis", "curvature.lifted_junk_basis"),
    ("curvature", "curvature_report", "curvature.curvature_report"),
    ("curvature", "curvature_direct", "curvature.curvature_direct"),
    ("curvature", "curvature_formula", "curvature.curvature_formula"),
    ("curvature", "junk_coset_residual", "curvature.junk_coset_residual"),
    ("curvature", "correspondence_decomposition_residual",
     "curvature.correspondence_decomposition_residual"),
    ("generate", "random_triple", "generate.random_triple"),
    ("generate", "random_module", "generate.random_module"),
    ("generate", "random_connection", "generate.random_connection"),
    ("generate", "junk_lift_pair", "generate.junk_lift_pair"),
    ("generate", "random_vertical", "generate.random_vertical"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("cli", "run", "cli.run"),
    ("harness", "selftest", "harness.selftest"),
    ("submersion", "submersion_invariants", "submersion.submersion_invariants"),
)

# Per-layer metrics reported by a traced run: (name, unit, better).
SELF_S = [prefix for _, _, prefix in TARGETS]
CALLS = [
    "curvature.lifted_junk_basis", "glinalg.subspace_basis",
    "fgpmod.represent_connection", "fgpmod.validate_connection",
    "forms.junk_space", "forms.kernel_one_forms", "forms.universal_form_basis",
    "glinalg.solve_kernel", "triple.SpectralTriple.coords",
]
PER_LAYER = (
    [(f"{p}.calls", "count", "lower") for p in CALLS]
    + [(f"{p}.self_s", "s", "lower") for p in SELF_S]
    + [
        ("triple.SpectralTriple.coords.failed", "count", "lower"),
        ("curvature.lifted_junk_basis.useful_ratio", "ratio", "higher"),
        ("fgpmod.validate_connection.useful_ratio", "ratio", "higher"),
        ("glinalg.subspace_basis.svd_flops", "flop", "lower"),
        ("glinalg.subspace_basis.svd_bytes", "B", "lower"),
        ("glinalg.solve_kernel.svd_flops", "flop", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
)


def svd_cost(rows: int, cols: int, full: bool) -> tuple[int, int]:
    """Computed (not measured) real flops and bytes of one complex SVD.

    Flops follow the R-SVD operation counts of Golub and Van Loan
    (Matrix Computations, 4th ed., Fig. 8.6.1) with U and V formed: thin,
    6 q p^2 + 20 p^3; full, 4 q^2 p + 22 p^3; with p = min and q = max of
    the shape, times 4 for complex arithmetic.  Bytes are the complex128
    input plus the U, V and singular-value outputs.
    """
    p, q = min(rows, cols), max(rows, cols)
    if p == 0:
        return 0, 0
    if full:
        flops = 4 * (4 * q * q * p + 22 * p ** 3)
        out = rows * rows + cols * cols
    else:
        flops = 4 * (6 * q * p * p + 20 * p ** 3)
        out = rows * p + p * cols
    return flops, 16 * (rows * cols + out) + 8 * p


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _extra(prefix: str, args, result):
    """The input facts a count metric needs, taken at the call boundary."""
    if prefix == "glinalg.subspace_basis":
        mats = args[0]
        size = int(mats[0].size) if len(mats) else 0
        return {"rows": len(mats), "cols": size, "rank": len(result)}
    if prefix == "glinalg.solve_kernel":
        rows, cols = args[0].shape
        return {"rows": int(rows), "cols": int(cols)}
    if prefix == "curvature.lifted_junk_basis":
        return {"rank": len(result)}
    if prefix == "fgpmod.validate_connection":
        module, a = args[0], args[1]
        return {"key": _digest(module.triple.dirac, module.p, module.signs, a.entries)}
    return None


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.pass_id = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, prefix: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            failed = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None if failed else _extra(prefix, args, result)
                spans[idx] = (prefix, self.pass_id, self.op_id, parent,
                              start, end, failed, extra)

        return traced

    def install(self) -> None:
        """Wrap every TARGET that exists; names that do not exist are skipped."""
        modules = {}
        for mod_name, _, _ in TARGETS:
            try:
                modules[mod_name] = importlib.import_module(f"ncgcurv.{mod_name}")
            except ImportError:
                continue
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "ncgcurv" or name.startswith("ncgcurv.")]
        for mod_name, path, prefix in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None:
                continue
            if isinstance(owner, type):
                self._wrap_class_attr(owner, attr, prefix)
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            traced = self._wrap(prefix, fn)
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, traced)
                        self._undo.append((m, name, fn))

    def _wrap_class_attr(self, cls: type, attr: str, prefix: str) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(prefix, original.func))
            replacement.__set_name__(cls, attr)
        else:
            replacement = self._wrap(prefix, original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "pass", "op", "parent", "start", "end",
                                  "failed", "extra"], "spans": self.spans}, fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[5] - s[4]
    return out


def layer_counts(spans: list, passes: set) -> dict[str, float]:
    """Exact count metrics (calls, failures, ratios, computed SVD cost) over the
    spans recorded in ``passes``."""
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    sub_flops = sub_bytes = ker_flops = 0
    kept = built = 0
    keys = set()
    n_validate = 0
    for s in spans:
        if s[1] not in passes:
            continue
        name, extra = s[0], s[7]
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + int(s[6])
        if extra is None:
            continue
        if name == "glinalg.subspace_basis":
            f, b = svd_cost(extra["rows"], extra["cols"], full=False)
            sub_flops += f
            sub_bytes += b
            if s[3] >= 0 and spans[s[3]][0] == "curvature.lifted_junk_basis":
                built += extra["rows"]
        elif name == "glinalg.solve_kernel":
            ker_flops += svd_cost(extra["rows"], extra["cols"], full=True)[0]
        elif name == "curvature.lifted_junk_basis":
            kept += extra["rank"]
        elif name == "fgpmod.validate_connection":
            keys.add((s[1], s[2], extra["key"]))
            n_validate += 1

    out = {f"{p}.calls": float(calls.get(p, 0)) for p in CALLS}
    out["triple.SpectralTriple.coords.failed"] = float(
        failed.get("triple.SpectralTriple.coords", 0))
    out["glinalg.subspace_basis.svd_flops"] = float(sub_flops)
    out["glinalg.subspace_basis.svd_bytes"] = float(sub_bytes)
    out["glinalg.solve_kernel.svd_flops"] = float(ker_flops)
    # A ratio with nothing attempted reads 0.
    out["curvature.lifted_junk_basis.useful_ratio"] = kept / built if built else 0.0
    out["fgpmod.validate_connection.useful_ratio"] = (
        len(keys) / n_validate if n_validate else 0.0)
    return out


def layer_self_s(spans: list) -> dict[int, dict[str, float]]:
    """Self time per traced function, for each pass id."""
    out: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, self_times(spans)):
        per_pass = out.setdefault(s[1], {f"{p}.self_s": 0.0 for p in SELF_S})
        per_pass[f"{s[0]}.self_s"] += t
    return out
