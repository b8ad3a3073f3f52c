import pytest
from hypothesis import HealthCheck, Phase, settings

from bqplane.fields import PrimeField, Q, QuadExt, format_element

# census_tables checks what a census kept; report its operands on failure
pytest.register_assert_rewrite("helpers")

# Exact-fraction arithmetic makes single examples slow; cap the example
# count and drop the per-example deadline instead of thinning assertions.
settings.register_profile(
    "exact",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same, without shrinking: a broken kernel fails many exact examples,
# and shrinking each of them can take minutes.  CI selects it with
# --hypothesis-profile=ci; local runs keep shrinking.
settings.register_profile(
    "ci",
    settings.get_profile("exact"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def mod3_zero_sums():
    """The residue pairs (a, b) mod 3 with a^2 + b^2 = 0 mod 3, by brute
    force: {(0, 0)} certifies that 3 divides no reduced denominator c of a
    rational unit step (a/c, b/c), a^2 + b^2 = c^2, gcd(a, b, c) = 1."""
    return {(a, b) for a in range(3) for b in range(3) if (a * a + b * b) % 3 == 0}


@pytest.fixture(scope="session")
def gf13():
    return PrimeField(13)


@pytest.fixture(scope="session")
def gf17():
    return PrimeField(17)


@pytest.fixture(scope="session")
def qi():
    return QuadExt(Q, -1)


@pytest.fixture(scope="session")
def qs2():
    return QuadExt(Q, 2)


@pytest.fixture(scope="session")
def qs2i(qs2):
    return QuadExt(qs2, -1)


@pytest.fixture(scope="session")
def point_table_text():
    """Table lines printed from a point-to-point dict, sorted by the
    coordinates' text, as tables were printed when they held points: the
    reference for the index-table printer."""
    def text(table) -> str:
        lines = []
        for src in sorted(table, key=lambda pt: (str(pt.x1), str(pt.x2))):
            dst = table[src]
            lines.append(f"{format_element(src.x1)},{format_element(src.x2)}"
                         f" -> {format_element(dst.x1)},{format_element(dst.x2)}")
        return "\n".join(lines) + "\n"

    return text


# ------------------------------------------------- acceptance reporting
#
# Acceptance tests record one line each through this fixture; the hook
# reprints them as a block at the end of the run so the verdict per
# criterion is visible in plain `pytest -v` output.

_acceptance_lines: list[tuple[int, str]] = []


@pytest.fixture
def acceptance():
    def record(n: int, ok: bool, detail: str) -> str:
        line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}"
        _acceptance_lines.append((n, line))
        return line

    return record


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_acceptance_lines):
        terminalreporter.write_line(line)
