"""Correctness gate: every answer the benchmark times is checked, and the
wrong or raising ones are counted against the answers attempted."""

ERROR = object()  # stands for an answer that raised
NOTES_KEPT = 10  # failures described in the report; the rest are only counted


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    @property
    def correct(self):
        return self.failed == 0

    def ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, ok, what):
        """One answer checked; ``ok`` says whether it was right."""
        self.attempted += 1
        if not ok:
            self._fail(1, what)

    def agree(self, answers, what):
        """All engines' answers to one query must agree; a split marks every
        answer of the query as failed, since none can be trusted over another.
        Returns whether they agreed."""
        self.attempted += len(answers)
        first = answers[0]
        if first is not ERROR and all(a == first and a is not ERROR for a in answers):
            return True
        self._fail(len(answers), f"{what}: engines answered {[_show(a) for a in answers]}")
        return False

    def against(self, answers, expected, what):
        """Answers of a query that ``agree`` already counted, held to an
        oracle; each one that differs fails."""
        wrong = sum(1 for a in answers if a is ERROR or a != expected)
        if wrong:
            self._fail(wrong, f"{what}: expected {expected!r}, engines answered {[_show(a) for a in answers]}")

    def _fail(self, count, what):
        self.failed += count
        if len(self.notes) < NOTES_KEPT:
            self.notes.append(what)


def call(fn, *args, **kwargs):
    """fn(*args, **kwargs), with any exception turned into ERROR."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a raising engine is a failed answer, not a crashed run
        return ERROR


def _show(a):
    return "error" if a is ERROR else a
