"""Import profile: ``python -X importtime -c "import codanorm"``, parsed.

``import.python_floor_s`` is a bare ``python -c pass``: interpreter start-up
that nothing in the repository can move, measured beside the rest so the
movable part of ``setup_s`` shows.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

IMPORT_METRICS = (
    "import.python_floor_s", "import.codanorm_s", "import.codanorm_self_s",
    "import.scipy_stats_s", "import.scipy_linalg_s", "import.numpy_s",
)


def parse_importtime(text):
    """Map ``-X importtime`` stderr to the ``import.*`` seconds (0 for a
    module that was not imported)."""
    self_us, cumulative_us = {}, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cum, name = line[len("import time:"):].split("|")
        name = name.strip()
        self_us.setdefault(name, int(own))
        cumulative_us.setdefault(name, int(cum))
    return {
        "import.codanorm_s": cumulative_us.get("codanorm", 0) / 1e6,
        "import.codanorm_self_s": sum(
            us for name, us in self_us.items() if name == "codanorm" or name.startswith("codanorm.")
        ) / 1e6,
        "import.scipy_stats_s": cumulative_us.get("scipy.stats", 0) / 1e6,
        "import.scipy_linalg_s": cumulative_us.get("scipy.linalg", 0) / 1e6,
        "import.numpy_s": cumulative_us.get("numpy", 0) / 1e6,
    }


def fresh_import_s(env, code="import codanorm"):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_profile(env, repeats):
    """Median of each ``import.*`` metric over ``repeats`` fresh imports."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import codanorm"],
                              env=env, check=True, capture_output=True, text=True)
        runs.append(parse_importtime(proc.stderr))
        runs[-1]["import.python_floor_s"] = fresh_import_s(env, "pass")
    return {key: statistics.median(r[key] for r in runs) for key in IMPORT_METRICS}
