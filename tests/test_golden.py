"""Byte-for-byte regression of every CLI report that passes on the fixtures.

``golden_reports.json`` maps "<command> <fixture>" to the exact stdout of
``ncgcurv <command> fixtures/<fixture> --format json --emit-matrices`` for
each of the 25 command/fixture pairs that exit 0.  ``selftest`` is left out:
its residuals near 1e-15 depend on the BLAS build.
"""

import contextlib
import io
import json
from pathlib import Path

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
