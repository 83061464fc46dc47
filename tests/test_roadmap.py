"""ROADMAP's item numbers stay resolvable.

Item numbers are stable and never reused, so every "item N" that ROADMAP
cites must be one of its numbered items or one of the done, merged or
withdrawn numbers its "Open items" preamble lists.  A PR that deletes an
item while other text still cites it fails here.
"""

import re
from pathlib import Path

ROADMAP = Path(__file__).resolve().parents[1] / "ROADMAP.md"
# perfbench's pool items are cited by their seeds, from 10 000 up
POOL_BASE = 10_000


def cited_items(text: str) -> set[int]:
    """Every N of "item N", "items N and M" and "items N, M and K" in ``text``."""
    cited = set()
    for match in re.finditer(r"\b[Ii]tems? (\d+(?:(?:, | and | or )\d+)*)", text):
        cited.update(int(n) for n in re.findall(r"\d+", match.group(1)))
    return {n for n in cited if n < POOL_BASE}


def test_cited_items_are_defined_or_retired():
    text = ROADMAP.read_text()
    defined = {int(n) for n in re.findall(r"^(\d+)\. \*\*", text, re.M)}
    retired = re.search(r"done,\s+merged\s+or\s+withdrawn\s+items\s+\(([\d,\s]+)\)", text)
    assert defined and retired
    retired = {int(n) for n in re.findall(r"\d+", retired.group(1))}
    assert cited_items(text) - defined - retired == set()


def test_cited_items_reads_every_list_form():
    assert cited_items("item 1's re-record; Items 5, 11, 12 and 15; items 3 and 7; "
                       "(item 10043)") == {1, 3, 5, 7, 11, 12, 15}
