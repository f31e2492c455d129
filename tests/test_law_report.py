"""Frozen law report: the suite's verdicts and failure messages, byte for byte.

``tests/data/law_report.json`` holds the timing-free report of a small
seeded suite, once under the real ``d_n`` and once under the broken
``doubled`` derivative of ``test_laws.py``.  The second report carries
failure messages with rendered values and printed terms, so a refactor of
the generators, the accumulators or the printers that changes any case the
suite draws, or any text it reports, fails here.

Regenerate the file only when a change is meant to alter the suite::

    PYTHONPATH=src python tests/test_law_report.py --write
"""

import json
import sys
from pathlib import Path

from rigdiff.laws import SuiteConfig, check_laws
from test_laws import doubled, timeless

REPORT = Path(__file__).parent / "data" / "law_report.json"
CONFIG = SuiteConfig(cases=20, level3_cases=5)


def reports() -> dict:
    return {name: timeless(check_laws(CONFIG, derive_fn=fn))
            for name, fn in (("d_n", None), ("doubled", doubled))}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def test_law_report_reproduces_byte_for_byte():
    got, text = reports(), REPORT.read_text(encoding="utf-8")
    assert not got["doubled"]["ok"] and got["d_n"]["ok"]
    # entry by entry first, so that a mismatch names the law that moved;
    # the round trip reads tuples back as the file's lists
    got, frozen = json.loads(_dumps(got)), json.loads(text)
    assert got.keys() == frozen.keys()
    for derivative, report in frozen.items():
        assert got[derivative]["config"] == report["config"], derivative
        assert ([e["name"] for e in got[derivative]["laws"]]
                == [e["name"] for e in report["laws"]]), derivative
        for have, want in zip(got[derivative]["laws"], report["laws"]):
            assert have == want, f"{derivative}.{want['name']} moved"
    assert _dumps(got) == text


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_law_report.py --write")
    REPORT.write_text(_dumps(reports()), encoding="utf-8")
