"""Command-line surface: exact counts, digit residues, expansions, verification.

Four subcommands share one executable:

  mary count    exact b(n) or c(n) with the residue mod m
  mary residue  the digit formulas alone, one record per n
  mary expand   both sides of an expansion identity, coefficient by coefficient
  mary verify   sweep a grid of (m, colours) points and compare formulas
                against the exact oracles

Exit codes: 0 for success or information, 1 for a mathematical mismatch,
2 for configuration or hypothesis errors, requests past the size limit
and unexpected errors, and 141 (128 + SIGPIPE, as the shell reports for
other tools) with nothing on stderr when the reader closes stdout early,
as `head` does.  Verification output on stdout is byte-identical for a
given configuration regardless of worker count; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import io
import operator
import os
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, compress, count, islice, repeat

from .congruence import (
    expand_b_product,
    expand_b_theorem,
    expand_c_product,
    expand_c_theorem,
    check_hypothesis,
    residue_b,
    residue_c,
    residues_b,
    residues_c,
    _digits,
)
from .counting import (
    ColourSpec,
    PartitionProblem,
    count_b_enum,
    count_b_series,
    count_c_enum,
    count_c_series,
)
from .series import CoprimalityError, coprimality_witness

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BROKEN_PIPE = 141

# Verification grid defaults: how many colour specs to sample per modulus
# swept (entries capped at 6), and the residue sweep bound.
GRID_QUOTAS = {2: 2, 3: 14, 5: 14, 7: 14, 9: 10}
GRID_MODULI = tuple(GRID_QUOTAS)
RESIDUE_SWEEP_LIMIT = 2000
MAX_COLOUR_ENTRY = 6
MISMATCH_RECORD_LIMIT = 100
# A mismatch record's fields, in the order verify prints them
MISMATCH_FIELDS = ("check", "m", "k", "n", "oracle", "formula")
# Most series terms or records one command may ask for; anything larger is
# a configuration error rather than an unbounded run.
MAX_TERMS = 1_000_000
# Lines of a text or CSV table (header included) rendered into one string
# and written with one call: a pipe then takes a table in a few large
# writes, and memory holds one block of lines at a time.
EMIT_BLOCK_LINES = 8192


def configure(ns: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments and complete them in place; return them.

    Adds colours, the parsed --k or None, and for count and residue span,
    the inclusive (lo, hi) of --n or --range, and sets expand's default
    --N of m**4.  The first bad value raises ValueError with the message
    main prints.  A second call on the same namespace changes nothing.
    """
    if ns.m is not None and ns.m < 2:
        raise ValueError(f"--m must be at least 2, got {ns.m}")
    ns.colours = None if ns.k is None else ColourSpec.parse(ns.k)
    if ns.command in ("count", "residue"):
        if ns.n is None:
            ns.span = _parse_span(ns.range)
        elif ns.n < 0:
            raise ValueError(f"--n must be nonnegative, got {ns.n}")
        else:
            ns.span = (ns.n, ns.n)
        lo, hi = ns.span
        # count builds its series from degree 0, residue only the n asked for
        _require_terms("--n/--range", hi + 1 if ns.command == "count" else hi - lo + 1)
        return ns
    if ns.N is not None and ns.N < 0:
        raise ValueError(f"--N must be nonnegative, got {ns.N}")
    if ns.command == "expand":
        if ns.N is None:
            ns.N = ns.m ** 4
        _require_terms("--N (default m**4)", ns.N + 1)
        return ns
    if ns.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {ns.jobs}")
    _require_terms("--N", ns.N + 1)
    # the theorem checks expand to degree m**4
    top_m = ns.m if ns.m is not None else max(GRID_MODULI)
    _require_terms(f"--m {top_m} (degree m**4)", top_m ** 4 + 1)
    return ns


def _require_terms(option: str, terms: int) -> None:
    if terms > MAX_TERMS:
        raise ValueError(f"{option} asks for {terms} terms, more than the limit of {MAX_TERMS}")


def _parse_span(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise ValueError(f"--range must look like 'a..b', got {text!r}")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--range must look like 'a..b', got {text!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"--range bounds must satisfy 0 <= a <= b, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mary",
        description="Coloured m-ary partition counts and their residues modulo m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True, help="base m, at least 2")
        p.add_argument(
            "--k",
            required=True,
            help="colour counts 'k0,k1,...;tail' (';tail' optional, defaults to the last entry)",
        )

    def add_span_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=int, help="single n")
        group.add_argument("--range", help="inclusive range 'a..b'")

    def add_format_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )

    count = sub.add_parser("count", help="exact counts with their residues")
    add_problem_args(count)
    count.add_argument("--variant", choices=("b", "c"), required=True,
                       help="b = unrestricted, c = gap-free")
    add_span_args(count)
    count.add_argument("--enum", action="store_true",
                       help="use the enumeration oracle instead of the series oracle")
    add_format_arg(count)
    count.set_defaults(handler=cmd_count)

    residue = sub.add_parser("residue", help="digit-formula residues")
    add_problem_args(residue)
    residue.add_argument("--variant", choices=("b", "c"), required=True,
                         help="b = unrestricted, c = gap-free")
    add_span_args(residue)
    add_format_arg(residue)
    residue.set_defaults(handler=cmd_residue)

    expand = sub.add_parser("expand", help="both sides of an expansion identity")
    add_problem_args(expand)
    expand.add_argument("--variant", choices=("b", "c"), default="b",
                        help="b = unrestricted, c = gap-free (default b)")
    expand.add_argument("--N", type=int, help="truncation degree (default m**4)")
    add_format_arg(expand)
    expand.set_defaults(handler=cmd_expand)

    verify = sub.add_parser("verify", help="sweep a verification grid")
    verify.add_argument("--m", type=int, help="restrict the grid to one base")
    verify.add_argument("--k", help="restrict the grid to one colour spec")
    verify.add_argument("--N", type=int, default=RESIDUE_SWEEP_LIMIT,
                        help=f"residue sweep bound (default {RESIDUE_SWEEP_LIMIT})")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    verify.add_argument("--probe", action="store_true",
                        help="diagnostic: run hypothesis-failing grid points instead")
    add_format_arg(verify)
    verify.set_defaults(handler=cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# record emission

def _emit(columns: Sequence[Sequence], fmt: str, fields: tuple[str, ...]) -> None:
    """Write a table, one sequence of cells per field, as a JSON list, CSV or aligned text.

    Text and CSV are written EMIT_BLOCK_LINES lines at a time, the header
    being the first line of the first block.  In text every column but the
    last is as wide as its widest cell or header, the last is not padded,
    and no line ends in whitespace.
    """
    if fmt == "json":
        import json

        print(json.dumps([dict(zip(fields, row)) for row in zip(*columns)], indent=1))
        return
    if fmt == "csv":
        import csv

        def render(lo: int, hi: int, head: bool) -> str:
            buf = io.StringIO()
            writer = csv.writer(buf)
            if head:
                writer.writerow(fields)
            writer.writerows(zip(*[column[lo:hi] for column in columns]))
            return buf.getvalue()
    else:
        render = _text_renderer(columns, fields)
    # row -1 is the header
    for start in range(-1, len(columns[0]), EMIT_BLOCK_LINES):
        sys.stdout.write(render(max(start, 0), start + EMIT_BLOCK_LINES, start < 0))


def _text_renderer(columns: Sequence[Sequence],
                   fields: tuple[str, ...]) -> Callable[[int, int, bool], str]:
    """The aligned text of a table's rows lo to hi - 1, after its header
    line when head is true, as a function of (lo, hi, head).

    Every cell comes ready-made from _column_cells, padded and followed by
    "  ", or by "\\n" in the last column, so a block is one join over the
    cells of all columns, interleaved row by row.  The last column is not
    padded, so only a last cell that is empty or ends in whitespace, or a
    cell holding a newline, can leave whitespace at a line's end: every
    block is right-stripped line by line when the last column has such a
    cell, and otherwise only a block with more newlines than lines.
    """
    texts = list(map(_texts, columns))
    widths = [max(len(name), max(map(len, cells), default=0))
              for name, cells in zip(fields[:-1], texts)] + [0]
    ends = [*repeat("  ", len(fields) - 1), "\n"]
    slots = list(map(_column_cells, columns, texts, widths, ends))
    header = "".join(name.ljust(width) + end for name, width, end in zip(fields, widths, ends))
    strip = any(not text or text[-1].isspace() for text in set(texts[-1]))
    total = len(columns[0])

    def render(lo: int, hi: int, head: bool) -> str:
        rows = min(hi, total) - lo
        parts = [part for cells in slots for part in cells(lo, hi)]
        k = len(parts)
        # slot i of a row sits at i + 1, i + 1 + k, ...; the header before them
        block = [header if head else "", *repeat(None, rows * k)]
        for i, part in enumerate(parts, 1):
            block[i::k] = part
        text = "".join(block)
        if strip or text.count("\n") > rows + head:
            text = "\n".join(map(str.rstrip, text.split("\n")))
        return text

    return render


def _column_cells(column: Sequence, texts: Sequence[str], width: int,
                  end: str) -> Callable[[int, int], tuple[Iterable[str], ...]]:
    """A column's text cells as a function of (lo, hi): one or two slots per
    row, each a sequence of one string per row lo to hi - 1, that make up
    each cell padded to width and followed by end.  texts is _texts(column).

    A range counting up from 0 or more gives its thousands ("" below 1000)
    and then a tail from a table of a thousand per length of the thousands,
    a column of strings the cell and then the pad its length needs, and any
    other column one padded str() per distinct value.
    """
    if isinstance(column, range) and column.step == 1 and column.start >= 0:
        tails = {}

        def cells(lo: int, hi: int) -> tuple[list[str], list[str]]:
            part = column[lo:hi]
            heads, rest = [], []
            for top in range(part.start - part.start % 1000, part.stop, 1000):
                head = str(top // 1000) if top else ""
                table = tails.get(len(head))
                if table is None:
                    table = tails[len(head)] = [
                        ("%03d" % r if head else str(r)).ljust(width - len(head)) + end
                        for r in range(1000)]
                first, last = max(part.start, top) - top, min(part.stop, top + 1000) - top
                heads += repeat(head, last - first)
                rest += table[first:last]
            return heads, rest
    elif texts is column:
        pads = [" " * (width - size) + end for size in range(width + 1)]

        def cells(lo: int, hi: int) -> tuple[Sequence[str], Iterable[str]]:
            part = column[lo:hi]
            # width 0, as in the last column, pads nothing
            return part, map(pads.__getitem__, map(len, part)) if width else repeat(end, len(part))
    else:
        padded = _PaddedCells(width, end)

        def cells(lo: int, hi: int) -> tuple[Iterable[str]]:
            return (map(padded.__getitem__, column[lo:hi]),)

    return cells


class _PaddedCells(dict):
    """Text cells by value: str(value) padded to width and followed by end,
    made on the first lookup of each distinct value.  True == 1, so a
    column must not mix bools with other ints."""

    def __init__(self, width: int, end: str) -> None:
        super().__init__()
        self.width, self.end = width, end

    def __missing__(self, value) -> str:
        text = self[value] = str(value).ljust(self.width) + self.end
        return text


def _texts(column: Sequence) -> Sequence[str]:
    """Enough of the str() of a column's cells, in C-level passes, to find
    its widest cell and whether any cell is empty or ends in whitespace:
    a range's two ends, a column of strings itself (which tells
    _column_cells to use its cells as they are), or else one str() per
    distinct value, as _PaddedCells makes them."""
    if not column:
        return ()
    if isinstance(column, range):
        # a range's widest number is at one of its ends
        return str(column[0]), str(column[-1])
    if all(map(isinstance, column, repeat(str))):
        return column
    # set() folds True into 1, as _PaddedCells' lookups do, so no table
    # mixes bools with other ints in one column
    return list(map(str, set(column)))


# ---------------------------------------------------------------------------
# count

def cmd_count(cfg: argparse.Namespace) -> int:
    prob = PartitionProblem(cfg.m, cfg.colours)
    lo, hi = cfg.span
    if cfg.enum:
        enum = count_b_enum if cfg.variant == "b" else count_c_enum
        # past its cap enum raises EnumerationCapError, a configuration error
        values = [0 if cfg.variant == "c" and n == 0 else enum(prob, n)
                  for n in range(lo, hi + 1)]
    else:
        build = count_b_series if cfg.variant == "b" else count_c_series
        values = build(prob, hi).coeffs[lo:]
    _emit([range(lo, hi + 1), list(map(str, values)), [value % prob.m for value in values]],
          cfg.fmt, ("n", "count", "mod"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# residue

def cmd_residue(cfg: argparse.Namespace) -> int:
    prob = PartitionProblem(cfg.m, cfg.colours)
    lo, hi = cfg.span
    # the gap-free formula covers n >= 1 and reads n rounded up to a multiple of m
    formula, first, unit = (residue_b, 0, 1) if cfg.variant == "b" else (residue_c, 1, prob.m)
    digit_cells, residues, notes = [], [], []
    for n in range(lo, hi + 1):
        digits, value, note = "", "", ""
        if n < first:
            note = "undefined for n = 0"
        else:
            try:
                value = formula(n, prob).value
                digits = ",".join(map(str, _digits(-(-n // unit) * unit, prob.m)))
            except CoprimalityError as exc:
                note = f"skipped: {exc}"
        digit_cells.append(digits)
        residues.append(value)
        notes.append(note)
    _emit([range(lo, hi + 1), digit_cells, residues, notes], cfg.fmt,
          ("n", "digits", "residue", "note"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# expand

def cmd_expand(cfg: argparse.Namespace) -> int:
    prob = PartitionProblem(cfg.m, cfg.colours)
    # the theorem side first: it refuses a problem outside the hypothesis
    # before the product series is built
    if cfg.variant == "b":
        rhs = expand_b_theorem(prob, cfg.N)
        lhs = expand_b_product(prob, cfg.N)
    else:
        rhs = expand_c_theorem(prob, cfg.N)
        lhs = expand_c_product(prob, cfg.N)
    _emit([range(cfg.N + 1), lhs.coeffs, rhs.coeffs,
           list(map(operator.eq, lhs.coeffs, rhs.coeffs))],
          cfg.fmt, ("exponent", "lhs", "rhs", "match"))
    return EXIT_OK if lhs.coeffs == rhs.coeffs else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify

def grid_colour_specs(m: int, quota: int, *, failing: bool = False) -> list[ColourSpec]:
    """Deterministic sample of colour specs for one grid base.

    Candidates have explicit entries and tails in [1, MAX_COLOUR_ENTRY],
    normalized so no two describe the same colour sequence, and are kept
    or dropped by the coprimality filter (inverted when failing=True).
    Single-entry specs are always kept first so the boundary k_0 = 1 and
    the all-ones spec appear; a seeded shuffle fills the rest of the quota.
    Candidates are (explicit, tail) pairs, ordered as tuples; only the
    chosen ones become ColourSpecs.
    """
    import random
    from itertools import product

    # the filter compares p only with bounds up to MAX_COLOUR_ENTRY, so
    # when m has no prime factor that small, m itself stands in for p
    p = coprimality_witness(m, MAX_COLOUR_ENTRY) or m
    entries = range(1, MAX_COLOUR_ENTRY + 1)
    singles = [((k,), k) for k in entries if (p > k) != failing]
    # every other candidate: a last entry equal to the tail normalizes away,
    # leaving a spec listed in its shorter form or among the singles.
    # rng.sample reads longer by position, so the grid depends on this order.
    longer = sorted((explicit, tail) for tail in entries for size in (1, 2, 3)
                    for explicit in product(entries, repeat=size) if explicit[-1] != tail
                    and (p > max(explicit[0] - 1, *explicit[1:], tail)) != failing)
    chosen = singles[:quota]
    rng = random.Random(1009 * m + (1 if failing else 0))
    chosen.extend(rng.sample(longer, min(quota - len(chosen), len(longer))))
    chosen.sort()
    return [ColourSpec(explicit, tail) for explicit, tail in chosen]


def default_grid(moduli=GRID_MODULI, *, failing: bool = False) -> list[PartitionProblem]:
    """The standard verification grid: hypothesis-passing points per base."""
    points = []
    for m in moduli:
        quota = GRID_QUOTAS.get(m, 10)
        for spec in grid_colour_specs(m, quota, failing=failing):
            points.append(PartitionProblem(m, spec))
    return points


def _verify_cell(task: tuple) -> list[tuple]:
    """Run both checks of one (grid point, variant).  Must stay picklable.

    The variant's product expansion, the counting series reduced mod m
    level by level, is built once, to the larger of the residue sweep
    limit and m**4.  The corollary compares its first limit + 1 terms
    with the digit formula, the theorem its first m**4 + 1 terms with the
    theorem's expansion.
    Returns one (checked, matched, mismatches) per check.
    """
    variant, prob, limit, probe = task
    degree = prob.m ** 4
    # module globals looked up per call: perfbench's tracer times them by replacing them
    if variant == "b":
        product, corollary, theorem, start = expand_b_product, residues_b, expand_b_theorem, 0
    else:
        # the gap-free formula covers n >= 1 only
        product, corollary, theorem, start = expand_c_product, residues_c, expand_c_theorem, 1
    oracle = product(prob, max(limit, degree)).coeffs
    # the sweep's list as a tuple, like the oracle: a list never equals a tuple
    return [
        _compare("corollary-" + variant, prob, start, oracle[:limit + 1],
                 tuple(corollary(prob, limit, enforce_hypothesis=not probe))),
        _compare("theorem-" + variant, prob, 0, oracle[:degree + 1],
                 theorem(prob, degree, enforce_hypothesis=not probe).coeffs),
    ]


def _compare(kind: str, prob: PartitionProblem, start: int, oracle, formula) -> tuple:
    """(checked, matched, mismatches) of one check, from n = start on.

    The two sides are compared in one equality, which holds only between
    sequences of one type, and scanned only when they differ.  A mismatch
    is a tuple of the MISMATCH_FIELDS values.  Only the first
    MISMATCH_RECORD_LIMIT mismatches become records: n ascends
    within a check, so these are its only candidates for the report's
    sorted top MISMATCH_RECORD_LIMIT.
    """
    oracle, formula = oracle[start:], formula[start:]
    checked = len(oracle)
    if oracle == formula:
        return checked, checked, []
    spec_text = str(prob.colours)
    mismatches = [(kind, prob.m, spec_text, n, oracle[n - start], formula[n - start])
                  for n in islice(compress(count(start), map(operator.ne, oracle, formula)),
                                  MISMATCH_RECORD_LIMIT)]
    return checked, checked - sum(map(operator.ne, oracle, formula)), mismatches


def run_verification(cfg: argparse.Namespace) -> dict:
    """The verify report, the document `verify --format json` prints, of
    verify's arguments after configure.

    Keys: grid (moduli, points, residue_limit, probe, specs), totals
    (checked, matched, mismatched, skipped_hypothesis) and mismatches, the
    first MISMATCH_RECORD_LIMIT records by (m, k, n, check).  checked
    always equals matched + mismatched; skipped_hypothesis counts --k
    candidates dropped by the hypothesis filter.
    """
    moduli = (cfg.m,) if cfg.m is not None else GRID_MODULI
    skipped = 0
    if cfg.colours is not None:
        candidates = [PartitionProblem(m, cfg.colours.normalized()) for m in moduli]
        # the whole spec: the tail's digit-table index is len(explicit)
        points = [prob for prob in candidates
                  if bool(check_hypothesis(prob, len(prob.colours.explicit))) != cfg.probe]
        skipped = len(candidates) - len(points)
    else:
        points = default_grid(moduli, failing=cfg.probe)

    # the b and c tasks of a point share its problem, and so its digit tables
    tasks = [(variant, prob, cfg.N, cfg.probe)
             for prob in points for variant in ("b", "c")]
    # the pool starts all its workers at once; past one per task they idle
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        # imported here: the pool's modules would add to every other run's start-up
        from concurrent.futures import ProcessPoolExecutor

        # one chunk of consecutive tasks per worker: one round trip each
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_verify_cell, tasks, chunksize=-(-len(tasks) // workers)))
    else:
        cells = map(_verify_cell, tasks)
    checks = list(chain.from_iterable(cells))

    checked = sum(check[0] for check in checks)
    matched = sum(check[1] for check in checks)
    # by (m, k, n, check); only the reported records become dicts
    mismatches = sorted(chain.from_iterable(check[2] for check in checks),
                        key=operator.itemgetter(1, 2, 3, 0))
    return {
        "grid": {
            "moduli": list(moduli),
            "points": len(points),
            "residue_limit": cfg.N,
            "probe": cfg.probe,
            "specs": [f"{p.m}:{p.colours}" for p in points],
        },
        "totals": {
            "checked": checked,
            "matched": matched,
            "mismatched": checked - matched,
            "skipped_hypothesis": skipped,
        },
        "mismatches": [dict(zip(MISMATCH_FIELDS, record))
                       for record in mismatches[:MISMATCH_RECORD_LIMIT]],
    }


def cmd_verify(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    report = run_verification(cfg)
    elapsed = time.perf_counter() - started

    grid, totals, mismatches = report["grid"], report["totals"], report["mismatches"]
    if cfg.fmt == "json":
        import json

        print(json.dumps(report, indent=1))
    elif cfg.fmt == "csv":
        _emit([[record[name] for record in mismatches] for name in MISMATCH_FIELDS], "csv",
              MISMATCH_FIELDS)
    else:
        print(f"grid moduli={','.join(map(str, grid['moduli']))} points={grid['points']} "
              f"residue_limit={grid['residue_limit']} probe={'yes' if grid['probe'] else 'no'}")
        print(" ".join(f"{k}={v}" for k, v in totals.items()))
        for record in mismatches:
            print("mismatch " + " ".join(f"{k}={v}" for k, v in record.items()))
        if cfg.probe:
            print("result: PROBE")
        else:
            print(f"result: {'PASS' if totals['mismatched'] == 0 else 'FAIL'}")

    print(f"verify completed in {elapsed:.2f}s", file=sys.stderr)
    if cfg.probe:
        return EXIT_OK
    return EXIT_OK if totals["mismatched"] == 0 else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; fold --help into 0
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        code = configure(ns).handler(ns)
        # flushed here, so a reader gone before the last write is caught below
        sys.stdout.flush()
        return code
    except ValueError as exc:  # a bad argument or a CoprimalityError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader stopped early, as `head` does: neither a configuration
        # error nor a crash.  stdout goes to devnull so that the flush at
        # exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        # exit 1 means a failed identity, so a crash must not produce it
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

