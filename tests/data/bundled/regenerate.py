"""Write the record of the bundled run: the five CSVs of the bundled config
and the stdout of `check`, into this directory.

    PYTHONPATH=src python tests/data/bundled/regenerate.py

``tests/test_record.py`` runs the same six commands through ``run_bundled``
and compares what they write with the files here.  Regenerate the record
only for a change that moves the outputs on purpose, and state each
column's largest move with it.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from enaqt import bundled_network_path, cli

RECORD = Path(__file__).resolve().parent
CSV_NAMES = ("dynamics.csv", "wavelength_sweep.csv", "bandwidth_sweep.csv",
             "enaqt_map.csv", "enaqt_map_extended.csv")
CHECK_NAME = "check.txt"


def run_bundled(out_dir) -> str:
    """Run the five writing commands on the bundled config into ``out_dir``
    and return the stdout of `check` on it."""
    config = str(bundled_network_path())
    for command in (["simulate"], ["sweep-wavelength"], ["sweep-bandwidth"], ["map"],
                    ["map", "--extended"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(command + [config, "--output-dir", str(out_dir)]) == 0, command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", config]) == 0, out.getvalue()
    return out.getvalue()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        check = run_bundled(tmp)
        for name in CSV_NAMES:
            shutil.copyfile(Path(tmp) / name, RECORD / name)
    (RECORD / CHECK_NAME).write_text(check)
    print(f"wrote the record of the bundled run to {RECORD}")
