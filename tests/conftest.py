import os
import sys

from hypothesis import settings

# One deterministic profile: the same examples on every run, no deadline on a
# loaded host, and no example database. Hypothesis also caches the constants
# it mines from local source, and writes a patch for each failing example,
# under its storage directory; a path that cannot be created keeps both out
# of the working tree (Hypothesis skips a cache write that fails).
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(os.devnull, "hypothesis"))
settings.register_profile(
    "gaga", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("gaga")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdicts and the oracle's gap summary after
    capture is torn down."""
    for name, title in (("test_oracle", "differential oracle"),
                        ("test_acceptance", "acceptance criteria")):
        module = sys.modules.get(name) or sys.modules.get(f"tests.{name}")
        lines = getattr(module, "VERDICT_LINES", None)
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
