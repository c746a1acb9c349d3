"""Shared fixtures: census income data staging and the acceptance summary.

The acceptance tests in test_acceptance.py need the UCI census income
benchmark ("adult").  The raw distribution is two header-less CSV files
(adult.data, adult.test) whose test-half labels carry a trailing period.
``_ensure_adult_csv`` stages a single headered, label-normalised adult.csv
into a cache directory, trying in order:

1. an existing adult.csv under $RELFAIR_DATA_DIR (or the default cache),
2. a fresh download from the UCI archive, only when RELFAIR_DOWNLOAD_ADULT=1.

The test suite makes no network access unless asked to.  When neither
source works the data-dependent criteria skip with the reason spelled out;
nothing is silently faked.
"""

import os
import tempfile
import urllib.error
import urllib.request

import pytest

import _acceptance_log
from relfair.data import builtin_config, load_from_config

ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num",
    "marital-status", "occupation", "relationship", "race", "sex",
    "capital-gain", "capital-loss", "hours-per-week", "native-country",
    "income",
)

ADULT_URLS = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data",
    "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.test",
)


def _cache_dir():
    explicit = os.environ.get("RELFAIR_DATA_DIR")
    if explicit:
        return explicit
    return os.path.join(tempfile.gettempdir(), "relfair-data")


def _normalise_raw(text, lines_out):
    """Append cleaned rows from one raw adult file to lines_out."""
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("|"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(ADULT_COLUMNS):
            continue
        # adult.test writes labels as ">50K." / "<=50K."
        cells[-1] = cells[-1].rstrip(".")
        lines_out.append(",".join(cells))


def _ensure_adult_csv():
    """Return (path to staged adult.csv, "") or (None, reason)."""
    cache = _cache_dir()
    target = os.path.join(cache, "adult.csv")
    if os.path.exists(target):
        return target, ""
    if os.environ.get("RELFAIR_DOWNLOAD_ADULT") != "1":
        return None, (
            f"census income data unavailable: no adult.csv under {cache!r}; "
            f"set RELFAIR_DATA_DIR to a directory holding one, or set "
            f"RELFAIR_DOWNLOAD_ADULT=1 to download it from the UCI archive"
        )
    lines = [",".join(ADULT_COLUMNS)]
    for url in ADULT_URLS:
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                _normalise_raw(resp.read().decode("latin-1"), lines)
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            return None, (
                f"census income data unavailable: no adult.csv under "
                f"{cache!r} (set RELFAIR_DATA_DIR to point at one) and "
                f"downloading {url} failed ({exc})"
            )
    os.makedirs(cache, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return target, ""


@pytest.fixture(scope="session")
def adult_data():
    """(raw Dataset, "") when the adult benchmark is available, else (None, reason)."""
    path, reason = _ensure_adult_csv()
    if path is None:
        return None, reason
    cfg = builtin_config("adult")
    raw = load_from_config(cfg, data_dir=os.path.dirname(path))
    return raw, ""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = _acceptance_log.OUTCOMES
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion in sorted(outcomes):
        status, detail = outcomes[criterion]
        terminalreporter.write_line(
            f"ACCEPTANCE {criterion}: {status} - {detail}"
        )
