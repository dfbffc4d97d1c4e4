"""Standing mutation check: every bug the tests are known to catch is put
back into a copy of the library, and its tests must then fail.

    python tests/mutants/run.py

Each entry of MUTANTS is (file under src/liaison, exact snippet,
replacement, killing test ids).  The script copies src/, tests/, fixtures/
and pyproject.toml to a temporary directory, so that the tests and the CLI
children they start import the copy.  It checks that every snippet occurs
exactly once in its file, runs the union of the killing tests on the
unmutated copy (they must pass), then applies one mutant at a time and runs
its tests with -x: the mutant is killed when they fail (pytest exit 1).  It
exits 0 only when every mutant is killed.

A mutant that survives is a finding: it stays in the table and gets a test
that kills it.  A refactor that removes a snippet rewrites that mutant for
the new code.  Standard library only; pytest runs as a child process,
with plugin autoload off.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COPIED = ("src", "tests", "fixtures", "pyproject.toml")

MUTANTS = (
    (
        "linkage.py",
        "total = total - term if j % 2 else total + term",
        "total = total + term",
        ["tests/test_linkage.py::test_triple_certificate_agrees_with_colons_on_held_out_triples"],
    ),
    (
        "linkage.py",
        "return second.contains(_determinant(base.ring, quotients))",
        "return True",
        ["tests/test_linkage.py::test_triple_certificate_agrees_with_colons_on_held_out_triples"],
    ),
    (
        "groebner.py",
        "quotients[k] = quotients[k].scale(ring.field.inv(g.leading_coefficient()))",
        "quotients[k] = quotients[k]",
        ["tests/test_groebner.py::test_divide_gives_the_normal_form_and_a_standard_representation"],
    ),
    (
        "groebner.py",
        "if not any(q):",
        "if True:",
        ["tests/test_localrings.py::test_local_mu_matches_normal_forms_modulo_m_times_i"],
    ),
    (
        "ideals.py",
        'raise RuntimeError("colon: a generator of I cap g*K lies outside (g)")',
        "pass",
        ["tests/test_ideals.py::test_colon_raises_when_a_division_leaves_a_remainder"],
    ),
    (
        "linkage.py",
        "    if len(h_first) - 1 > s:\n        return False\n",
        "",
        ["tests/test_linkage.py::test_certificate_declines_a_first_with_a_longer_h_vector"],
    ),
    (
        "rings.py",
        "return (-sum(exponents), *reversed(exponents))",
        "return (-sum(exponents), *exponents)",
        [
            "tests/test_rings.py::test_heap_key_sorts_descending",
            "tests/test_rings.py::test_grevlex_degree_two_textbook_order",
        ],
    ),
    (
        "rings.py",
        "return tuple(-e for e in exponents)",
        "return tuple(-e for e in reversed(exponents))",
        [
            "tests/test_rings.py::test_heap_key_sorts_descending",
            "tests/test_rings.py::test_monomial_compare_lex",
        ],
    ),
    (
        "doublelines.py",
        "    return (line.forms[1], line.forms[0])",
        "    return line.forms",
        ["tests/test_doublelines.py::test_classify_does_not_depend_on_the_support_order"],
    ),
    (
        "localrings.py",
        "v ** (data.degree + 1)",
        "v ** data.degree",
        ["tests/test_localrings.py::test_embedded_curve_through_the_origin_is_refuted"],
    ),
    (
        "localrings.py",
        "sample = [ring.field.zero, *ring.field.random_sample()]",
        "sample = ring.field.random_sample()",
        [
            "tests/test_localrings.py::test_slices_over_f3_may_have_a_zero_coefficient",
            "tests/test_cli.py::test_cli_check[f3-three-point-cone]",
        ],
    ),
    (
        "sessions.py",
        "_at(var, session.ring.index, var.text)",
        "_at(v1, session.ring.index, var.text)",
        ["tests/test_sessions.py::test_session_errors_name_their_position"],
    ),
    (
        "sessions.py",
        "return tok, _at(tok, int, tok.text)",
        "return tok, int(tok.text)",
        ["tests/test_sessions.py::test_integer_literals_past_the_digit_limit_fail_at_their_token"],
    ),
    (
        "sessions.py",
        "col = m.start(kind) + 1",
        "col = m.start() + 1",
        ["tests/test_sessions.py::test_dline_and_point_reject_trailing_input"],
    ),
    (
        "ideals.py",
        "for g in elimination_basis(gens, basis)",
        "for g in elimination_basis(basis + gens)",
        ["tests/test_groebner.py::test_pair_work_is_pinned"],
    ),
    (
        "ideals.py",
        "(basis if len(f.terms) == 1 else gens).append(lift(f))",
        "(basis if len(f.terms) <= 2 else gens).append(lift(f))",
        ["tests/test_ideals.py::test_intersect_from_its_monomial_part_matches_no_basis"],
    ),
    (
        "ideals.py",
        "if current.contains_ideal(nxt):",
        "if nxt.contains_ideal(current):",
        [
            "tests/test_ideals.py::test_saturate",
            "tests/test_ideals.py::test_equality_saturation_and_regularity_ignore_held_bases[F31]",
        ],
    ),
    (
        "linkage.py",
        "return I.contains_ideal(ideal_colon(I, Ideal(I.ring, [h])))",
        "return ideal_colon(I, Ideal(I.ring, [h])).contains_ideal(I)",
        [
            "tests/test_localrings.py::test_regularity_certificate_edges",
            "tests/test_localrings.py::test_regularity_tests_only_the_colon_against_the_ideal",
        ],
    ),
    (
        "ideals.py",
        "return J.contains_ideal(I) and I.contains_ideal(J)",
        "return J.contains_ideal(I)",
        [
            "tests/test_ideals.py::test_ideal_equal_by_containment_agrees_with_reduced_bases[F31-grevlex]",
            "tests/test_ideals.py::test_equality_saturation_and_regularity_ignore_held_bases[F31]",
        ],
    ),
    (
        "localrings.py",
        "    if not I.is_homogeneous():\n        cut = ideal_sum(I,",
        "    if I.is_homogeneous():\n        cut = ideal_sum(I,",
        [
            "tests/test_localrings.py::test_graded_reduction_takes_one_basis_beyond_its_input",
            "tests/test_localrings.py::test_chart_reduction_takes_one_lazard_basis",
        ],
    ),
    (
        "reports.py",
        'name = f.metadata.get("json", f.name)',
        "name = f.name",
        [
            "tests/test_reports.py::test_every_report_prints_its_fields_by_one_rule[HilbertData]",
            "tests/test_linkage.py::test_skew_lines_take_the_colon_fallback",
        ],
    ),
    (
        "reports.py",
        "if name is not None:\n                out[name]",
        "if True:\n                out[name or f.name]",
        ["tests/test_reports.py::test_every_report_prints_its_fields_by_one_rule[HilbertData]"],
    ),
    (
        "reports.py",
        'if isinstance(value, tuple) and hasattr(value, "_fields"):',
        "if False:",
        [
            "tests/test_reports.py::test_every_report_prints_its_fields_by_one_rule[TripleReport]",
            "tests/test_linkage.py::test_skew_lines_take_the_colon_fallback",
        ],
    ),
    (
        "reports.py",
        "if isinstance(value, Report):\n        return value.as_dict()",
        'if hasattr(value, "__dataclass_fields__"):\n        return Report.as_dict(value)',
        [
            "tests/test_reports.py::test_every_report_prints_its_fields_by_one_rule[LocalPointReport]",
            "tests/test_acceptance.py::test_criterion_10_cli_golden_files",
        ],
    ),
    (
        "cli.py",
        '"POINT": Session.lookup_point',
        '"POINT": Session.lookup_ideal',
        ["tests/test_cli.py::test_unknown_names_and_wrong_arity_exit_two"],
    ),
    (
        "cli.py",
        "None: EXIT_INCONCLUSIVE}",
        "None: EXIT_FALSE}",
        [
            "tests/test_cli.py::test_gorenstein_inconclusive_exits_three",
            "tests/test_cli.py::test_verify_triple_exhausted_budget_exits_three",
        ],
    ),
    (
        "linkage.py",
        "passed=gor if all((*containments, colon_first, colon_second, degree_additive)) else False,",
        "passed=all((*containments, colon_first, colon_second, degree_additive)) and gor is True,",
        ["tests/test_cli.py::test_verify_triple_exhausted_budget_exits_three"],
    ),
    (
        "linkage.py",
        "passed=gor if all((*containments, colon_first, colon_second, degree_additive)) else False,",
        "passed=gor,",
        ["tests/test_cli.py::test_verify_triple_failed_exact_check_exits_one"],
    ),
    (
        "linkage.py",
        'raise ValueError("link requires quotients of equal dimension")',
        "pass",
        ["tests/test_cli.py::test_cli_check[link-of-unequal-dimensions]"],
    ),
    (
        "cli.py",
        'points = [v for kind, v in zip(kinds, values) if kind == "POINT"]',
        "points = []",
        ["tests/test_cli.py::test_points_tested_and_witnesses_of_each_command_kind[mu I1 P]"],
    ),
    (
        "cli.py",
        'points += [r.point for r in getattr(result, "point_reports", ())]',
        "points += []",
        ["tests/test_cli.py::test_points_tested_and_witnesses_of_each_command_kind[classify M1 M2]"],
    ),
    (
        "localrings.py",
        "return codim, GorensteinInvariants(None, None, Q)",
        "return codim, GorensteinInvariants(None, None, False)",
        [
            "tests/test_cli.py::test_gorenstein_inconclusive_exits_three",
            "tests/test_cli.py::test_local_gorenstein_has_one_shape_in_every_outcome[inconclusive]",
        ],
    ),
    (
        "localrings.py",
        'note = GORENSTEIN_NOTES[invariants.gorenstein] if invariants.length is None else ""',
        'note = GORENSTEIN_NOTES[False] if invariants.length is None else ""',
        ["tests/test_localrings.py::test_lci_with_no_slice_drawn_reads_codim_off_the_local_dimension"],
    ),
    (
        "cli.py",
        "    if gor is None:\n        text +=",
        "    if False:\n        text +=",
        ["tests/test_cli.py::test_gorenstein_inconclusive_exits_three"],
    ),
    (
        "ideals.py",
        "held = J._local = (",
        "held = (",
        ["tests/test_localrings.py::test_lci_with_no_slice_drawn_reads_codim_off_the_local_dimension"],
    ),
)


def _pytest(copy, test_ids, *flags):
    # no plugin autoload: importing every installed plugin was most of each
    # child's start-up; a killing test that needs a plugin names it with -p
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *test_ids]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True).returncode


def _check(copy):
    """Problems found; prints one line per mutant."""
    problems = []
    library = copy / "src" / "liaison"
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    where = subprocess.run(
        [sys.executable, "-c", "import liaison; print(liaison.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True,
    ).stdout.strip()
    if not where.startswith(str(library)):
        return [f"the copy's tests would import liaison from {where or 'nowhere'}"]
    for name, snippet, _, _ in MUTANTS:
        count = (library / name).read_text(encoding="utf-8").count(snippet)
        if count != 1:
            problems.append(f"{name}: snippet found {count} times, not once: {snippet!r}")
    if problems:
        return problems
    test_ids = sorted({test_id for *_, tests in MUTANTS for test_id in tests})
    code = _pytest(copy, test_ids)
    if code != 0:
        return [f"the killing tests fail on the unmutated copy (pytest exit {code})"]
    for name, snippet, replacement, tests in MUTANTS:
        path = library / name
        original = path.read_text(encoding="utf-8")
        path.write_text(original.replace(snippet, replacement), encoding="utf-8")
        started = time.perf_counter()
        try:
            code = _pytest(copy, tests, "-x")
        finally:
            path.write_text(original, encoding="utf-8")
        verdict = "killed" if code == 1 else f"NOT KILLED (pytest exit {code})"
        first_line = snippet.strip().splitlines()[0]
        print(f"{verdict:<26} {time.perf_counter() - started:5.1f} s  {name}: {first_line}")
        if code != 1:
            problems.append(f"{name}: mutant of {first_line!r} not killed")
    return problems


def main():
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="liaison-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        problems = _check(copy)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
