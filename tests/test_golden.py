"""Byte-for-byte regression of every CLI report that passes on the fixtures.

``golden_reports.json`` maps "<command> <fixture>" to the exact stdout of
``ncgcurv <command> fixtures/<fixture> --format json --emit-matrices`` for
each of the 25 command/fixture pairs that exit 0.  ``selftest`` is left out:
its residuals near 1e-15 depend on the BLAS build.  The three module reports
on the free two-point module are also checked number by number against the
exact rational values of ``oracles/two_point_oracle.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from ncgcurv.cli import EXIT_OK, main

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json"))
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_report_byte_identical(pair, fixtures_dir):
    command, fixture = pair.split(" ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(fixtures_dir / fixture),
                     "--format", "json", "--emit-matrices"])
    assert code == EXIT_OK
    assert out.getvalue() == GOLDEN[pair]


FREE_MODULE_PAIRS = [f"{command} two_point_free_module.json"
                     for command in ("curvature", "product-spectrum", "correspondence")]


def _numbers(x) -> list:
    """The numbers of a nested list, in order."""
    if isinstance(x, list):
        return [v for item in x for v in _numbers(item)]
    return [x]


@pytest.mark.parametrize("pair", FREE_MODULE_PAIRS)
def test_free_module_report_matches_exact_oracle(pair, two_point_oracle):
    # every check value, value and matrix entry within 4 ulp of the exact one
    want = two_point_oracle["free_module"][pair.split(" ")[0]]
    got = json.loads(GOLDEN[pair])
    assert [c["name"] for c in got["checks"]] == list(want["checks"])
    compared = [(c["value"], want["checks"][c["name"]]) for c in got["checks"]]
    for part in ("values", "matrices"):
        assert list(got.get(part, {})) == list(want.get(part, {}))
        for name, value in got.get(part, {}).items():
            g, w = _numbers(value), _numbers(want[part][name])
            assert len(g) == len(w), name
            compared += zip(g, w)
    for g, w in compared:
        assert abs(g - w) <= 4 * np.spacing(abs(w)), (pair, g, w)
