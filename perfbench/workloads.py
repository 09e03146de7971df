"""The benchmark's workloads: the mary commands each one runs, and the
checks every command's output must pass.

A workload is a list of commands that make up one pass.  Each command has
a label (the end-to-end figure it adds to), the CLI arguments given to
mary, and a check that reads its exit code and stdout and returns an
error message, or None when the output is right.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from mary import (
    ColourSpec,
    PartitionProblem,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
    residue_b,
    residue_c,
)

Check = Callable[[int, str], "str | None"]

GRID_STDOUT = (
    "grid moduli=2,3,5,7,9 points=54 residue_limit=2000 probe=no\n"
    "checked=434442 matched=434442 mismatched=0 skipped_hypothesis=0\n"
    "result: PASS\n"
)
PROBE_HEADER = "grid moduli=2,3,5,7,9 points=40 residue_limit=2000 probe=yes"
PROBE_TOTALS = "checked=311172 matched=223066 mismatched=88106 skipped_hypothesis=0"
PROBE_RECORDS = 100

COUNT_LIMIT = 100_000
ENUM_LIMIT = 300
RESIDUE_SAMPLES = 200
# m -> expansion degree, each a power of m between 6e4 and 1.3e5
EXPAND_DEGREES = {2: 2 ** 16, 3: 3 ** 10, 5: 5 ** 7}
# tabulated specs have this many explicit entries with a fixed sum, so
# every seed gives the same number of series passes per modulus
SPEC_ENTRIES = 4


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    """A named command list; the reason for each is in BENCHMARK.json."""

    name: str
    commands: Callable[[int], list[Command]]
    # --jobs 2 forks workers whose calls an in-process tracer cannot see,
    # so the traced run keeps only the single-process commands
    traced_labels: tuple[str, ...]
    # call counts the traced run gave when the benchmark was defined; an
    # optimisation may change them, so a difference is reported, not failed
    expected_calls: dict[str, int]

    def traced_commands(self, seed: int) -> list[Command]:
        return [c for c in self.commands(seed) if c.label in self.traced_labels]


# ---------------------------------------------------------------------------
# grid

def check_grid(code: int, out: str) -> str | None:
    # both --jobs 1 and --jobs 2 must print exactly this, which also makes
    # their stdout byte-identical
    if code != 0:
        return f"exit code {code}, expected 0"
    if out != GRID_STDOUT:
        return f"stdout differs from the expected PASS report: {out[:300]!r}"
    return None


def grid_commands(seed: int) -> list[Command]:
    return [
        Command("verify_s", ("verify", "--jobs", "1"), check_grid),
        Command("verify_jobs2_s", ("verify", "--jobs", "2"), check_grid),
    ]


# ---------------------------------------------------------------------------
# probe

def check_probe(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = out.splitlines()
    if len(lines) != PROBE_RECORDS + 3:
        return f"expected {PROBE_RECORDS + 3} lines, got {len(lines)}"
    if lines[0] != PROBE_HEADER or lines[1] != PROBE_TOTALS or lines[-1] != "result: PROBE":
        return f"probe header, totals or result line wrong: {lines[:2] + lines[-1:]!r}"
    records = []
    for line in lines[2:-1]:
        words = line.split()
        if words[0] != "mismatch":
            return f"not a mismatch record: {line!r}"
        records.append(dict(w.split("=", 1) for w in words[1:]))
    # one exact series per (variant, point), long enough for every record
    reach: dict[tuple[str, str, str], int] = {}
    for rec in records:
        key = (rec["check"][-1], rec["m"], rec["k"])
        reach[key] = max(reach.get(key, 0), int(rec["n"]))
    oracles = {
        (variant, m, k): (count_b_series if variant == "b" else count_c_series)(
            PartitionProblem(int(m), ColourSpec.parse(k)), n).coeffs
        for (variant, m, k), n in reach.items()
    }
    keys = []
    for rec, line in zip(records, lines[2:-1]):
        m, n = int(rec["m"]), int(rec["n"])
        oracle, formula = int(rec["oracle"]), int(rec["formula"])
        exact = oracles[rec["check"][-1], rec["m"], rec["k"]][n] % m
        # the gap-free identity is stated for 1 + sum c(n) q^n
        if rec["check"] == "theorem-c" and n == 0:
            exact = 1
        if oracle != exact:
            return f"oracle value wrong in {line!r}"
        if formula == oracle or not 0 <= formula < m:
            return f"record is not a mismatch: {line!r}"
        keys.append((m, rec["k"], n, rec["check"]))
    if keys != sorted(keys):
        return "mismatch records are not sorted by (m, k, n, check)"
    return None


def probe_commands(seed: int) -> list[Command]:
    return [Command("verify_s", ("verify", "--probe", "--jobs", "1"), check_probe)]


# ---------------------------------------------------------------------------
# tabulate

def tabulated_spec(m: int, rng: random.Random) -> ColourSpec:
    """A seeded admissible spec for base m, from specs of equal colour load.

    Admissible means the smallest prime p of m exceeds k_0 - 1 and every
    later k_j.  The tail is the largest admissible count, and the explicit
    entries are drawn from those whose sum is the middle of its range.
    """
    p = min(d for d in range(2, m + 1) if m % d == 0)
    ranges = [range(1, p + 1)] + [range(1, p)] * (SPEC_ENTRIES - 1)
    target = (SPEC_ENTRIES + sum(r[-1] for r in ranges) + 1) // 2
    candidates = [ks for ks in itertools.product(*ranges) if sum(ks) == target]
    return ColourSpec(rng.choice(candidates), p - 1).normalized()


def _table(out: str, header: list[str], rows: int) -> list[list[str]] | str:
    lines = out.splitlines()
    if not lines or lines[0].split() != header:
        return f"header is not {header}"
    table = [line.split() for line in lines[1:]]
    if len(table) != rows:
        return f"expected {rows} rows, got {len(table)}"
    return table


def count_check(prob: PartitionProblem, variant: str, samples: list[int]) -> Check:
    enum = count_b_enum if variant == "b" else count_c_enum
    residue = residue_b if variant == "b" else residue_c

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        table = _table(out, ["n", "count", "mod"], COUNT_LIMIT + 1)
        if isinstance(table, str):
            return table
        for n, row in enumerate(table):
            if len(row) != 3 or int(row[0]) != n or int(row[1]) % prob.m != int(row[2]):
                return f"row {n} malformed or its mod is wrong: {row}"
        for n in range(ENUM_LIMIT + 1):
            expected = 0 if variant == "c" and n == 0 else enum(prob, n)
            if int(table[n][1]) != expected:
                return f"count at n={n} is {table[n][1]}, enumeration gives {expected}"
        for n in samples:
            if int(table[n][2]) != residue(n, prob).value:
                return f"mod at n={n} disagrees with the digit formula"
        return None

    return check


def expand_check(degree: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        table = _table(out, ["exponent", "lhs", "rhs", "match"], degree + 1)
        if isinstance(table, str):
            return table
        for e, row in enumerate(table):
            if row != [str(e), row[1], row[1], "True"]:
                return f"row {e} is not a match: {row}"
        return None

    return check


def tabulate_commands(seed: int) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for m, degree in EXPAND_DEGREES.items():
        spec = tabulated_spec(m, rng)
        prob = PartitionProblem(m, spec)
        k = str(spec)
        for variant in ("b", "c"):
            samples = sorted(rng.sample(range(1, COUNT_LIMIT + 1), RESIDUE_SAMPLES))
            commands.append(Command(
                "count_s",
                ("count", "--m", str(m), "--k", k, "--variant", variant,
                 "--range", f"0..{COUNT_LIMIT}"),
                count_check(prob, variant, samples),
            ))
        for variant in ("b", "c"):
            commands.append(Command(
                "expand_s",
                ("expand", "--m", str(m), "--k", k, "--variant", variant,
                 "--N", str(degree)),
                expand_check(degree),
            ))
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", grid_commands, ("verify_s",), {
            "congruence.residue": 216_054,
            "congruence.hypothesis": 216_162,
            "series.mul": 756,
        }),
        Workload("probe", probe_commands, ("verify_s",), {
            "congruence.residue": 160_040,
            "congruence.hypothesis": 0,
            "series.mul": 560,
        }),
        Workload("tabulate", tabulate_commands, ("count_s", "expand_s"), {
            "congruence.residue": 0,
        }),
    )
}
