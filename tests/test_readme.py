"""The README's library quick tour runs, and answers what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour():
    """The python block under the README's "Library quick tour" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_answers_as_its_comments_say():
    code = quick_tour()
    # every "call  # -> answer" line, with the answer its comment gives
    claims = re.findall(r"^(\w+\(.*\))\s+# -> (\d+)\b", code, re.M)
    assert [call.split("(")[0] for call, _ in claims] == ["rmq_direct", "mliq_weighted"]
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    c = scope["c"]  # "c counts 2 select + 1 rmq + 1 rank"
    assert (c.select, c.rmq, c.rank, c.total()) == (2, 1, 1, 4)
    for call, answer in claims:
        assert eval(call, scope) == int(answer), call
