import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the calls to np.linalg.svd, which the rank rule uses."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def qr_rows(monkeypatch):
    """The row count of every np.linalg.qr call: one per Householder QR."""
    rows, qr = [], np.linalg.qr

    def counting(M, *args, **kwargs):
        rows.append(len(M))
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return rows
