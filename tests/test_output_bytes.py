"""Byte pins for every CLI output: subcommand x format x option.

Each entry is the argument vector and the sha256 of the bytes it writes to
stdout (or, for ``--svg``, to the file named by ``{svg}``). Any change to
the output bytes of any subcommand fails here by name; change a digest only
together with a declared change of output.
"""

import hashlib

import pytest

from simrank.cli import cli_main

PINS = (
    (("rank", "--target", "Messi", "--metric", "p1", "--format", "table"),
     "d5e837754f12ae68e03ad240e9681ae1bc33fcd264df5b4a3d35603f44881fc4"),
    (("rank", "--target", "Messi", "--metric", "p1", "--format", "csv"),
     "48da639e99b5a90a330d46a83bf4cef6b67cc8427874920dd269a3a0336317aa"),
    (("rank", "--target", "Messi", "--metric", "p1", "--format", "json"),
     "ee7bf549c064e4237f78ff5cf56275b2be58fbc7a5aa9a6a303f02db875705be"),
    (("rank", "--target", "Messi", "--metric", "p2", "--format", "table"),
     "fc9f1990441ea778a99314a55c43b65f7cdba4c2494f8e3cb65e2ea4b8e868c5"),
    (("rank", "--target", "Messi", "--metric", "p2", "--format", "csv"),
     "ef0b14b7bd0350712386525247b566e4812f3faded97d7119f263622c5d5df6c"),
    (("rank", "--target", "Messi", "--metric", "p2", "--format", "json"),
     "68d0ab11e16da2d71662e1ba452572388c625e624121f41171fd18131b5a2fe1"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p1", "--format", "table"),
     "ccc5571af7c27e59fae499319ac6963dd83751fcefedf42d7617f5ec62d665ed"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p1", "--format", "csv"),
     "4a67b0b5a787b1907f2c6587450ff92e13af25a7a4d3daa7d9f8167e6ea12365"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p1", "--format", "json"),
     "27008655562718ea67b2fef97f4eda4f8493ebfd9dc0a85b37e84b148eb7acab"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p2", "--format", "table"),
     "55169b3e6890da8a5be726b07c5a19aa7e80df1ea1be839d389b62741b90ecf2"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p2", "--format", "csv"),
     "17b74a44ae867ed3b862104a45fe60a5e783a8af2b9b9871b6778283e7addc61"),
    (("nearest", "--target", "C. Ronaldo", "-k", "5", "--metric", "p2", "--format", "json"),
     "1383c9a7cf9f4d54e648681336de11fd7750bf6dea1d3b52216a98d1e80edd00"),
    (("corr", "--format", "table"),
     "f160bb1eac2dcd240d9815eb30d287ee81db3b4ffd2c6e24f5c157e3701fbed1"),
    (("corr", "--format", "csv"),
     "f160bb1eac2dcd240d9815eb30d287ee81db3b4ffd2c6e24f5c157e3701fbed1"),
    (("corr", "--format", "json"),
     "f160bb1eac2dcd240d9815eb30d287ee81db3b4ffd2c6e24f5c157e3701fbed1"),
    (("corr", "--top", "4", "--format", "table"),
     "75378e2eee3e2d8fd59ab83bd085558d33a24df03bb2da4c89e2b11f6405e17c"),
    (("corr", "--top", "4", "--format", "csv"),
     "9bc6954880aba336629839e2de55d9779fcac284c0afe92e3f6df9c4e5c4b8e7"),
    (("corr", "--top", "4", "--format", "json"),
     "c52567429f50b5be34a985590763ecc21ff8b663e1a1e48b086c11cc746cd2a6"),
    (("corr", "--top", "0", "--format", "table"),
     "2544a7f921c4fa96a8bf159d58a1181b721ac666c16eefa1963d937e34e858b3"),
    (("corr", "--top", "0", "--format", "csv"),
     "2d62dbc1b6c2c0e0d8011f09633710f4ae5d7052260b85d2450fb633441f1b9e"),
    (("corr", "--top", "0", "--format", "json"),
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--format", "csv"),
     "20479a354cfe2ddbe4c01908bab596fbd49a92527c8903381504d3912fa1f737"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--format", "json"),
     "3425daaa0e6bf8880f1cef28cc14827ea291fe465cb9d2721027ed437ff040e6"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--svg", "{svg}"),
     "dbde41e03d9b9af1cd187b3abc1948e9d132a6997d725f12ff410769bd341402"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--trend", "--format", "csv"),
     "d8c13b6aef988895c2f6aed5e7cda144af48a5fba114043157b5cf297cc48c18"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--trend", "--format", "json"),
     "94ce7b40c973a1d80b31866ac2780dbfcaf2c85e0967ebe4ecec099f5aa32faf"),
    (("scatter", "-x", "Dribbling", "-y", "Disp", "--trend", "--svg", "{svg}"),
     "151a583b7e154fb9a8e7ea3b8d77bffa109d02e85bd59f6a992f20e9a88380e7"),
    (('dump-normalized',),
     "a9e6163d7a3bb5c83bc3b841e5e95d664065220e6175580f4512f634aa6956fa"),
    (('validate',),
     "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"),
)


@pytest.mark.parametrize("argv, digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_output_bytes_are_pinned(capsys, tmp_path, argv, digest):
    svg = tmp_path / "plot.svg"
    code = cli_main([str(svg) if a == "{svg}" else a for a in argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    text = svg.read_text(encoding="utf-8") if "{svg}" in argv else out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
