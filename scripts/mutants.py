#!/usr/bin/env python3
"""Mutation harness: each mutant is one small fault that named tests must catch.

Every row of MUTANTS is a name, a file under src/, an `old` text that
occurs exactly once in that file, the `new` text that replaces it, and the
test node ids that must fail once it is in place.  For each mutant the
script copies src/, tests/, scripts/ and algebras/ into a fresh temporary
directory, applies the replacement there and runs only that mutant's
tests with `python -m pytest -x -q`.  The mutant is killed when they fail and
survives when they pass.  Before any mutant, the union of the selected
mutants' tests must pass on an unmutated copy, so a test that fails for
another reason is not read as a kill.  The working tree is never written.

Exit status: 0 when every selected mutant is killed, 1 when one survives,
2 when the table is stale (an `old` text missing or repeated) or the
unmutated tests fail.  A change that reports a mutant adds it here.

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named ones

The full table, 78 mutants, took 150 s for the mutants alone and 159 s of
wall time with the unmutated pass, on a 2-core box with Python 3.11.7;
witness-lhs-printed-with-a-colon runs the 2-3 s sweep test.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


YB = "src/ujla/yang_baxter.py"
IDS = "src/ujla/identities.py"
T_YB = "tests/test_yang_baxter.py::"
T_ID = "tests/test_identities.py::"
T_RV = "tests/test_revalidation.py::"
CL = "src/ujla/classify.py"
AL = "src/ujla/algebra.py"
T_CL = "tests/test_classify.py::"
LA = "src/ujla/linalg.py"
T_LA = "tests/test_linalg.py::"
FI = "src/ujla/fields.py"
T_FI = "tests/test_fields.py::"
FF = "src/ujla/fileformat.py"
T_RC = "tests/test_records.py::"

MUTANTS = (
    # The sparse braid/QYBE products.
    Mutant("product-no-mod-p", YB,
           "        acc = [x % p for x in acc]\n",
           "        pass\n",
           (T_YB + "test_slot_application_matches_dense_oracle_lifts[2-F5]",)),
    Mutant("product-keeps-a-reduced-zero-in-a-row", YB,
           "    if p:\n"
           "        acc = [x % p for x in acc]\n"
           "    return sparse_row(acc)\n",
           "    return [(k, x % p if p else x) for k, x in sparse_row(acc)]\n",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[3-F5]",)),
    Mutant("pair-memo-keyed-by-the-unordered-pair", YB,
           "    pairs = {key: _Product(lifts[key[0]], lifts[key[1]], p) for key in ((b, c), (a2, b2))}\n"
           "    inner, outer = pairs[b, c], pairs[a2, b2]\n",
           "    pairs = {frozenset(key): _Product(lifts[key[0]], lifts[key[1]], p) for key in ((b, c), (a2, b2))}\n"
           "    inner, outer = pairs[frozenset((b, c))], pairs[frozenset((a2, b2))]\n",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    Mutant("stop-skips-rows-that-differ-in-values-only", YB,
           "if ra != rb:",
           "if dict(ra).keys() != dict(rb).keys():",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    Mutant("lift-rows-keep-zero-entries-of-r", YB,
           "[[(pair[j], x) for j, x in enumerate(row) if x] for row in rows]",
           "[[(pair[j], x) for j, x in enumerate(row)] for row in rows]",
           (T_YB + "test_kernel_forms_one_product_per_selected_nonzero",)),
    Mutant("lift-rows-without-other-slot-offset", YB,
           "out[u + w] = [(v + w, x) for v, x in entry]",
           "out[u + w] = entry",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    Mutant("mismatch-column-from-rhs-entries-only", YB,
           "for c in ra.keys() | rb.keys()",
           "for c in rb",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[3-F5]",)),
    Mutant("mismatch-column-from-lhs-entries-only", YB,
           "for c in ra.keys() | rb.keys()",
           "for c in ra",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    Mutant("mismatch-scaled-by-l-squared", YB,
           "cube = scale ** 3",
           "cube = scale ** 2",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-Q]",)),
    Mutant("slots-s-and-t-swapped", YB,
           "_SLOTS = {12: (0, 1, 2), 23: (1, 2, 0), 13: (0, 2, 1)}",
           "_SLOTS = {12: (1, 0, 2), 23: (2, 1, 0), 13: (2, 0, 1)}",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    Mutant("slots-13-read-as-23", YB,
           "13: (0, 2, 1)}",
           "13: (1, 2, 0)}",
           (T_YB + "test_sparse_kernel_matches_dense_oracle_on_edge_operators[2-F5]",)),
    # The one sparse accumulation kernel, under every product of the package.
    Mutant("product-accumulates-the-coefficient-alone", LA,
           "acc[k] += c * x",
           "acc[k] += c",
           (T_LA + "test_accumulate_matches_a_dense_integer_oracle[Q]",
            T_YB + "test_slot_application_matches_dense_oracle_lifts[2-Q]")),
    Mutant("integer-kernel-drops-the-right-coordinate", LA,
           "            c *= scale\n",
           "            c = scale\n",
           (T_LA + "test_accumulate_matches_a_dense_integer_oracle[F5]",
            T_ID + "test_plan_verdict_and_witness_match_formal_oracle[0-3-4]",
            T_RV + "test_integer_sides_match_the_field_scalar_oracle[2-Q]")),
    # Integer elimination in linear algebra.
    Mutant("bareiss-step-divides-by-the-new-pivot", LA,
           "rows[i] = [(piv * x - f * y) // den for x, y in zip(rows[i], top)]",
           "rows[i] = [(piv * x - f * y) // piv for x, y in zip(rows[i], top)]",
           (T_LA + "test_elimination_matches_the_field_scalar_oracle[Q]",)),
    Mutant("pivot-search-restarts-at-row-0", LA,
           "pr = next((i for i in range(r, nrows) if rows[i][c]), None)",
           "pr = next((i for i in range(nrows) if rows[i][c]), None)",
           (T_LA + "test_elimination_matches_the_field_scalar_oracle[F3]",)),
    # The identity engine.
    Mutant("differences-without-mod-p", IDS,
           "lhs, rhs = [x % p for x in lhs], [x % p for x in rhs]",
           "lhs, rhs = lhs, rhs",
           (T_ID + "test_plan_verdict_and_witness_match_formal_oracle[3-2-10]",)),
    Mutant("groups-read-in-reverse", IDS,
           "for mono, lterms, rterms in plan.groups:",
           "for mono, lterms, rterms in reversed(plan.groups):",
           (T_ID + "test_polynomial_strictly_stronger_over_f2",)),
    Mutant("table-row-split-by-left-size", IDS,
           "q, r = divmod(n, self.right.size)",
           "q, r = divmod(n, self.left.size)",
           (T_ID + "test_each_slot_table_row_is_built_once",)),
    Mutant("table-row-left-factor-read-at-r", IDS,
           "for i, x in self.left[q]:",
           "for i, x in self.left[r]:",
           (T_ID + "test_each_slot_table_row_is_built_once",)),
    Mutant("witness-grid-pool-reversed", IDS,
           "[0, 1, p - 1] if p else [0, 1, -1]",
           "[p - 1, 1, 0] if p else [-1, 1, 0]",
           (T_ID + "test_polynomial_concrete_witness_matches_evaluate_sides_oracle",)),
    Mutant("witness-words-scaled-by-l-m-minus-1", IDS,
           "c * f ** (top - len(leaves))",
           "c * f ** (len(leaves) - 1)",
           (T_ID + "test_polynomial_concrete_witness_matches_evaluate_sides_oracle",)),
    Mutant("witness-sides-compared-without-mod-p", IDS,
           "if any((x - y) % p for x, y in zip(lhs, rhs)) if p else lhs != rhs:",
           "if lhs != rhs:",
           (T_ID + "test_polynomial_concrete_witness_matches_evaluate_sides_oracle",)),
    Mutant("witness-grid-walked-before-the-basis-tuples", IDS,
           "((basis, view.products), (grid, {}))",
           "((grid, {}), (basis, view.products))",
           (T_ID + "test_polynomial_concrete_witness_matches_evaluate_sides_oracle",)),
    Mutant("plan-keyed-by-the-field-object", IDS,
           "_compile(spec, alg.dim, alg.field.characteristic, reduce)",
           "_compile(spec, alg.dim, alg.field, reduce)",
           (T_ID + "test_a_warm_plan_is_found_without_hashing_or_comparing_the_field",)),
    Mutant("pointwise-residual-from-first-group", IDS,
           "for mono, lhs, rhs in _differences(plan, view)}",
           "for mono, lhs, rhs in itertools.islice(_differences(plan, view), 1)}",
           (T_ID + "test_pointwise_verdict_and_witness_match_exhaustive_oracle[2-3-12]",)),
    Mutant("pointwise-witness-sides-at-all-e0", IDS,
           "lambda leaves: [leaves], combo.__getitem__)\n        return Verdict(",
           "lambda leaves: [leaves], lambda v: alg.basis_vector(0))\n        return Verdict(",
           (T_ID + "test_pointwise_verdict_and_witness_match_exhaustive_oracle[2-3-12]",)),
    Mutant("slot-coefficients-without-monomial-filter", IDS,
           "if _monomial(leaves, sigma, len(mono), d) == mono:",
           "if True:",
           ("tests/test_axioms.py::test_failing_verdicts_carry_revalidating_witnesses",)),
    Mutant("field-sides-normalise-one-side", IDS,
           "return from_integers(alg.field, lhs, scale), from_integers(alg.field, rhs, scale)",
           "return from_integers(alg.field, lhs, scale), tuple(rhs)",
           ("tests/test_axioms.py::test_failing_verdicts_carry_revalidating_witnesses",)),
    Mutant("view-multiply-reads-left-coordinates-from-v", AL,
           "for i, x in enumerate(u):",
           "for i, x in enumerate(v):",
           (T_RV + "test_integer_sides_match_the_field_scalar_oracle[2-Q]",)),
    Mutant("view-multiply-without-mod-p", AL,
           "return tuple([x % p for x in acc] if p else acc)",
           "return tuple(acc)",
           (T_RV + "test_multiply_matches_the_field_scalar_product[2-F3]",)),
    # Witnesses and revalidation through the view's product.
    Mutant("field-sides-memo-key-without-left-factor", IDS,
           "    product = memo.get(key)\n"
           "    if product is None:\n"
           "        product = memo[key] = view.multiply(*key)\n",
           "    product = memo.get(key[1])\n"
           "    if product is None:\n"
           "        product = memo[key[1]] = view.multiply(*key)\n",
           ("tests/test_axioms.py::test_failing_verdicts_carry_revalidating_witnesses",)),
    Mutant("word-sides-memo-per-call", IDS,
           "memo = view.products if memo is None else memo",
           "memo = {} if memo is None else memo",
           (T_ID + "test_each_product_is_formed_once_per_algebra",)),
    Mutant("product-memo-shared-by-every-algebra", AL,
           "        self.products: dict = {}\n",
           "        self.products = globals().setdefault(\"_PRODUCTS\", {})\n",
           (T_ID + "test_each_product_is_formed_once_per_algebra",)),
    Mutant("grid-walk-fills-the-view-products", IDS,
           "(grid, {})",
           "(grid, view.products)",
           (T_ID + "test_the_grid_walk_leaves_no_product_on_the_view",)),
    Mutant("evaluate-sides-fills-the-view-products", IDS,
           "                                  dict(view.products))\n",
           "                                  view.products)\n",
           (T_ID + "test_a_callers_assignments_leave_no_product_on_the_view",)),
    Mutant("pointwise-point-tabulates-p-by-p-powers", IDS,
           "    point = []\n"
           "    for _ in range(len(next(iter(residual)))):\n"
           "        for c in range(p):\n"
           "            merged: dict = {}\n"
           "            for mono, diff in residual.items():\n"
           "                f = pow(c, mono[0], p)\n",
           "    powers = [[pow(c, e, p) for e in range(p)] for c in range(p)]\n"
           "    point = []\n"
           "    for _ in range(len(next(iter(residual)))):\n"
           "        for c in range(p):\n"
           "            merged: dict = {}\n"
           "            for mono, diff in residual.items():\n"
           "                f = powers[c][mono[0]]\n",
           (T_ID + "test_the_pointwise_point_takes_powers_up_to_the_residual_degree",)),
    Mutant("field-sides-words-not-scaled-by-the-vector-scale", IDS,
           "f, top = s * view.scale, plan.top",
           "f, top = view.scale, plan.top",
           (T_RV + "test_integer_sides_match_the_field_scalar_oracle[2-Q]",)),
    # The identity text parser.
    Mutant("parse-malformed-coefficient-unchecked", IDS,
           '        if tok.endswith("/"):\n'
           '            raise ValueError(f"malformed coefficient {tok!r} in identity text")\n',
           "",
           (T_ID + "test_parse_names_a_malformed_coefficient",)),
    Mutant("parse-zero-denominator-leaks", IDS,
           "coef = QQ.parse(toks.pop()[1])",
           "coef = Fraction(toks.pop()[1])",
           (T_ID + "test_parse_rejects_malformed_input",)),
    Mutant("parse-ambiguous-product-unchecked", IDS,
           '    if toks[-1][1] == "*":\n'
           '        raise ValueError("ambiguous product: products are non-associative, '
           'parenthesize explicitly")\n',
           "",
           (T_ID + "test_parse_rejects_ambiguous_products",)),
    Mutant("parse-right-side-end-unchecked", IDS,
           "        if toks != [_END]:\n"
           '            raise ValueError(f"{name}: trailing tokens after the right side")\n',
           "",
           (T_ID + "test_parse_rejects_malformed_input",)),
    Mutant("identity-parse-recursion-error-escapes", IDS,
           "        except RecursionError:\n"
           '            raise ValueError(f"{name}: identity text nests too deeply") from None\n',
           "        except ZeroDivisionError:\n"
           "            raise\n",
           (T_ID + "test_parse_turns_deep_nesting_into_a_value_error",)),
    # The literal grammar and the file boundary.
    Mutant("literal-grammar-reads-unicode-digits", FI,
           'INTEGER = "[+-]?[0-9]+"',
           r'INTEGER = r"[+-]?\d+"',
           (T_FI + "test_every_reader_rejects_text_outside_the_grammar[arabic-indic]",)),
    Mutant("field-label-reads-unicode-digits", FI,
           're.fullmatch("F[1-9][0-9]*", label)',
           r're.fullmatch(r"F\d+", label)',
           (T_FI + "test_every_reader_rejects_text_outside_the_grammar[label-arabic-indic]",)),
    Mutant("prime-literal-read-as-a-reduced-fraction", FI,
           "        if den % self.p == 0:\n"
           '            raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{self.p}")\n',
           "        if Fraction(num, den).denominator % self.p == 0:\n"
           '            raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{self.p}")\n',
           (T_FI + "test_a_prime_field_literal_inverts_its_denominator_unreduced",)),
    Mutant("json-recursion-error-escapes", FF,
           "    except RecursionError:\n"
           '        raise ValueError(f"not a valid {what} file: nested too deeply") from None\n',
           "",
           ("tests/test_fileformat.py::test_deep_nesting_and_repeated_keys_are_value_errors[algebra]",)),
    Mutant("json-duplicate-keys-last-wins", FF,
           ", object_pairs_hook=unique_keys",
           "",
           ("tests/test_fileformat.py::test_deep_nesting_and_repeated_keys_are_value_errors[operator]",)),
    Mutant("json-bytes-decoded-outside-the-try", FF,
           "    try:\n"
           '        text = data.decode("utf-8") if isinstance(data, bytes) else data\n',
           '    text = data.decode("utf-8") if isinstance(data, bytes) else data\n'
           "    try:\n",
           ("tests/test_cli.py::test_decoder_errors_carry_the_file_prefix_once[check]",)),
    Mutant("json-value-errors-left-unprefixed", FF,
           "    except ValueError as exc:",
           "    except json.JSONDecodeError as exc:",
           ("tests/test_cli.py::test_decoder_errors_carry_the_file_prefix_once[yb verify]",)),
    Mutant("rank-skips-the-row-below-the-pivot", LA,
           "range(r + 1, nrows)",
           "range(r + 2, nrows)",
           (T_LA + "test_elimination_matches_the_field_scalar_oracle[F3]",)),
    # The frozen records.
    Mutant("record-equal-across-classes", FI,
           "        if other.__class__ is not self.__class__:\n",
           "        if not isinstance(other, Record):\n",
           (T_RC + "test_records_behave_as_frozen_dataclasses[BraidReport]",)),
    Mutant("record-allows-assignment", FI,
           '        raise AttributeError(f"cannot assign to field {name!r}")\n',
           "        object.__setattr__(self, name, value)\n",
           (T_RC + "test_records_behave_as_frozen_dataclasses[Verdict]",)),
    Mutant("record-replace-skips-init", FI,
           "        return self.__class__(**values)\n",
           "        new = object.__new__(self.__class__)\n"
           "        for name, value in values.items():\n"
           "            object.__setattr__(new, name, value)\n"
           "        return new\n",
           (T_RC + "test_replace_runs_the_checks_again",)),
    Mutant("record-hash-drops-a-field", FI,
           "        return hash(tuple(values))\n",
           "        return hash(tuple(values[1:]))\n",
           (T_RC + "test_records_behave_as_frozen_dataclasses[PrimeField]",)),
    # Products, derivations and the command line.
    Mutant("sparse-multiply-reads-e_j-e_i", AL,
           "view.multiply(us, vs)",
           "view.multiply(vs, us)",
           ("tests/test_algebra.py::test_sparse_multiply_matches_dense_product[Q]",)),
    Mutant("formal-product-reads-c-j-i", AL,
           "uv.scale(c[i][j][k])",
           "uv.scale(c[j][i][k])",
           (T_ID + "test_plan_verdict_and_witness_match_formal_oracle[3-2-10]",)),
    Mutant("multiply-brought-back-by-s-l", AL,
           "s * s * view.scale)",
           "s * view.scale)",
           (T_RV + "test_multiply_matches_the_field_scalar_product[2-Q]",)),
    Mutant("unit-check-ignores-the-vector-scale", AL,
           "target = tuple(s * view.scale * x for x in e)",
           "target = tuple(view.scale * x for x in e)",
           ("tests/test_algebra.py::test_unit_check_reads_the_scales_of_unit_and_tensor",)),
    # One scalar gate per value type, where the value is built.
    Mutant("matrix-skips-the-scalar-gate", LA,
           "rows = tuple(tuple(coerce(field, x) for x in row) for row in rows)",
           "rows = tuple(tuple(x for x in row) for row in rows)",
           ("tests/test_fields.py::test_api_entries_share_one_scalar_gate[Matrix]",
            "tests/test_fields.py::test_api_entries_share_one_scalar_gate[lift]")),
    Mutant("operator-accepts-a-matrix-of-another-field", YB,
           "        if matrix.field != field:\n"
           "            raise ValueError(f\"operator over {field} given a matrix over {matrix.field}\")\n",
           "",
           ("tests/test_fields.py::test_a_matrix_over_another_field_is_rejected",)),
    Mutant("clear-skips-the-scalar-gate", AL,
           "flat = [coerce(field, x) for v in vectors for x in v]",
           "flat = [x for v in vectors for x in v]",
           ("tests/test_fields.py::test_api_entries_share_one_scalar_gate[Algebra.multiply]",)),
    Mutant("derivation-left-map-columns-read-as-right", "src/ujla/derivations.py",
           "[sparse_row(view.multiply(u, e)) for e in view.basis_vectors]",
           "[sparse_row(view.multiply(e, u)) for e in view.basis_vectors]",
           ("tests/test_derivations.py::test_builders_match_column_construction_over_q_and_fp",)),
    Mutant("leibniz-witness-over-s", "src/ujla/derivations.py",
           "from_integers(field, acc, s * t)",
           "from_integers(field, acc, s)",
           ("tests/test_derivations.py::test_leibniz_verdict_and_witness_match_basis_pair_oracle",)),
    Mutant("leibniz-pair-compared-without-mod-p", "src/ujla/derivations.py",
           "return any((x - y) % p for x, y in zip(u, v)) if p else u != v",
           "return u != v",
           ("tests/test_derivations.py::test_leibniz_verdict_and_witness_match_basis_pair_oracle",)),
    Mutant("leibniz-first-pair-in-column-major-order", "src/ujla/derivations.py",
           "for i in range(d) for j in range(d)",
           "for j in range(d) for i in range(d)",
           ("tests/test_derivations.py::test_first_failing_leibniz_pair_is_taken_in_row_major_order",)),
    Mutant("leibniz-sides-scale-without-l", "src/ujla/derivations.py",
           "scale = r * s * s * view.scale",
           "scale = r * s * s",
           (T_RV + "test_leibniz_sides_and_tampering_match_the_oracle[Q-2]",)),
    # The classification walk and its constant equations.
    Mutant("scan-subtree-count-not-clipped", CL,
           "counts[names[0]] += min(b, stop) - max(a, start)",
           "counts[names[0]] += b - a",
           (T_CL + "test_split_scan_ranges_concatenate_to_the_serial_scan[polynomial]",)),
    Mutant("scan-failed-not-lowered", CL,
           "                    failed = pos\n",
           "",
           (T_CL + "test_scan_builds_no_algebra_and_runs_no_identity_check[polynomial]",)),
    Mutant("scan-buckets-rebuilt-per-scan", CL,
           "@functools.cache\ndef _suite_buckets(",
           "def _suite_buckets(",
           (T_CL + "test_a_second_scan_expands_no_constant_equations",)),
    Mutant("constant-equations-lead-not-normalised", IDS,
           "equations.setdefault(tuple((mono, x * lead % p) for mono, x in eq))",
           "equations.setdefault(tuple(eq))",
           (T_CL + "test_constant_equations_are_monic_and_counted[5]",)),
    # The GL action of the orbit partition.
    Mutant("gl-action-output-coordinate-through-g", CL,
           "outs = [[(k, ginv_rows[k][m]) for k in range(d) if ginv_rows[k][m]] for m in range(d)]",
           "outs = [[(k, g_rows[k][m]) for k in range(d) if g_rows[k][m]] for m in range(d)]",
           (T_CL + "test_transform_tensor_is_a_group_action",
            T_CL + "test_are_isomorphic_returns_the_first_witness_in_lex_order")),
    Mutant("gl-action-image-without-mod-p", CL,
           "t2 = tuple([x % p for x in accumulate([0] * n, terms, action)])",
           "t2 = tuple(accumulate([0] * n, terms, action))",
           (T_CL + "test_burnside_and_orbit_stabiliser_counts[polynomial-2-3]",)),
    Mutant("isomorphism-image-without-mod-p", CL,
           "if [x % p for x in image] == flat_a:",
           "if image == flat_a:",
           (T_CL + "test_are_isomorphic_returns_the_first_witness_in_lex_order",)),
    Mutant("option-pattern-without-fractions", "src/ujla/cli.py",
           "(?:{LITERAL.pattern})(?:,(?:{LITERAL.pattern}))*$",
           "[0-9]+(?:,-?[0-9]+)*$",
           ("tests/test_cli.py::test_negative_literal_is_a_separate_option_value[--alpha]",)),
    Mutant("dim-option-read-by-int", "src/ujla/cli.py",
           'p.add_argument("--dim", type=integer, required=True)',
           'p.add_argument("--dim", type=int, required=True)',
           (T_FI + "test_every_reader_rejects_text_outside_the_grammar[fullwidth]",)),
    Mutant("witness-lhs-printed-with-a-colon", "src/ujla/cli.py",
           'print(f"  lhs = {format_vector(alg.field, w.lhs)}")',
           'print(f"  lhs: {format_vector(alg.field, w.lhs)}")',
           ("tests/test_cli.py::test_check_sweep_prints_the_frozen_digests",)),
    Mutant("deform-name-lists-beta-first", "src/ujla/transforms.py",
           "deform({field.format(alpha)},{field.format(beta)})",
           "deform({field.format(beta)},{field.format(alpha)})",
           ("tests/test_cli.py::test_derive_deform_prints_alpha_then_beta",)),
    Mutant("classify-out-checked-after-the-scan", "src/ujla/cli.py",
           "        _require_writable(args.out)  # before a scan that may take minutes\n",
           "        pass\n",
           ("tests/test_cli.py::test_classify_unwritable_out_fails_before_the_scan[directory]",)),
)


def stale(mutants) -> list:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
    return problems


def _copy_tree(dest: pathlib.Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests", "scripts", "algebras"):  # the sweep test runs scripts/
        shutil.copytree(ROOT / part, dest / part, ignore=skip)


def _pytest(work: pathlib.Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a mutated copy of src/ and tests/."""
    with tempfile.TemporaryDirectory(prefix="ujla-mutant-") as tmp:
        work = pathlib.Path(tmp)
        _copy_tree(work)
        target = work / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        return _pytest(work, mutant.tests) != 0


def main(argv=None, mutants=MUTANTS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in mutants}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [known[n] for n in args.names] if args.names else list(mutants)
    problems = stale(selected)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    tests = list(dict.fromkeys(t for m in selected for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="ujla-mutant-") as tmp:
        _copy_tree(pathlib.Path(tmp))
        if _pytest(pathlib.Path(tmp), tests) != 0:
            print("the mutants' tests fail on the unmutated code", file=sys.stderr)
            return 2
    survivors = []
    start = time.monotonic()
    for m in selected:
        killed = run_mutant(m)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}", flush=True)
        if not killed:
            survivors.append(m.name)
    print(f"{len(selected) - len(survivors)} of {len(selected)} mutants killed "
          f"in {time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
