"""Shared test wiring: the capability tally printed after the run, and a
binding of the rank-one update to SciPy's exported ``dgemm``."""

import ctypes
import threading

import pytest

VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance tally")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def capsule_dgemm(monkeypatch):
    """Binds the rank-one update's ``dgemm`` from SciPy's capsule, as on
    an install whose numpy exposes no BLAS symbol, and records each call
    as the ``(cols, rows)`` of the update."""
    from absolve import core
    monkeypatch.setattr(core, "_numpy_dgemm", lambda: None)
    dgemm, blas_int = core._fortran_dgemm()
    assert blas_int is ctypes.c_int
    calls = []

    def recording(*args):
        calls.append(tuple(blas_int.from_address(ptr.value).value
                           for ptr in args[2:4]))
        return dgemm(*args)

    monkeypatch.setattr(core, "_DGEMM", recording)
    monkeypatch.setattr(core, "_BLAS_INT", blas_int)
    monkeypatch.setattr(core, "_BLAS_INT_MAX", 2 ** 31 - 1)
    # the thread's call holds dims of the default binding's width
    monkeypatch.setattr(core, "_THREAD", threading.local())
    return calls
