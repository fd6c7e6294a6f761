import re

from hypothesis import settings

CRITERION = re.compile(r"test_criterion_(\d+)")

# Property tests draw the same examples on every run: a failure reproduces,
# and the config fuzz test costs the same time each run.  max_examples is
# hypothesis's own default; tests that need fewer say so.
settings.register_profile(
    "qlb", derandomize=True, deadline=None, database=None, max_examples=100
)
settings.load_profile("qlb")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = CRITERION.search(nodeid)
            if m:
                rows.append((int(m.group(1)), outcome.upper(), nodeid))
    if not rows:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, outcome, nodeid in sorted(rows):
        word = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"  criterion {num:2d}: {word}  ({nodeid})")
