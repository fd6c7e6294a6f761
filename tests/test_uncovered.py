import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_the_lines_one_test_file_leaves_unrun():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "uncovered.py"), "-q",
                          "-p", "no:cacheprovider", str(ROOT / "tests" / "test_constants.py")],
                         capture_output=True, text=True, cwd=ROOT, check=True)
    listed = re.findall(r"^(src/qlb/\w+\.py):(\d+): (.*)$", run.stdout, re.MULTILINE)
    assert run.stdout.splitlines()[-1] == f"{len(listed)} lines of src/qlb not executed"
    files = {path for path, _, _ in listed}
    # importing qlb.constants runs all of constants.py; test_constants fits nothing
    assert "src/qlb/constants.py" not in files
    assert ("src/qlb/uncert.py", "raise DegenerateSystemError(\"every sigma must be finite "
            "and > 0\")") in {(path, text) for path, _, text in listed}
    tls = (ROOT / "src" / "qlb" / "tls.py").read_text().splitlines()
    assert all(tls[int(line) - 1].strip() == text
               for path, line, text in listed if path == "src/qlb/tls.py")
