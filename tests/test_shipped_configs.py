"""The CSVs of the shipped configs, byte for byte.

Each ``configs/*.cfg`` runs as shipped, with its output under ``tmp_path``,
and each CSV's sha256 must equal its pin.  The pins were taken from the
committed configs' outputs; a change that moves any shipped output must
change its pin and say why.
"""

import glob
import hashlib
import os

import pytest

from sparsecomm.harness import EXIT_OK, run

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

PINS = {
    "bounds.cfg": "6ff61a6f22aee6b11edb0e4dca52611a66ede34c8e03ba7ed06b52743174db73",
    "codec_roundtrip.cfg": "1a9702a08451e9decfb56001af39c35a515260a7020cbe2894fb8b6bd44104e1",
    "compare_sparsifiers.cfg": "01b785310f6d2b7bbe62e0e7688795a9226ae9af1cd6c0dc1d8d624e9817791b",
    "estimate_risk.cfg": "0636cb663e9537b7e0b180f9abe73b511a07ad4a8833311e9e07fd9487c9a6e7",
    "sweep_risk.cfg": "2dcb3f2bf1be7538192a8dc94b35e998c0cc380cc99a3ee3c7fb4f0aa8167f2d",
    "train.cfg": "ea30216db65b6077f284f22d7031ad4f8db26849f7f0ddc92b621116516ea309",
}


def test_every_shipped_config_is_pinned():
    shipped = {os.path.basename(path) for path in glob.glob(os.path.join(CONFIGS, "*.cfg"))}
    assert shipped == set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_shipped_csv_bytes(tmp_path, name):
    out = tmp_path / "out.csv"
    assert run(os.path.join(CONFIGS, name), out=str(out), echo=lambda _: None) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name]
