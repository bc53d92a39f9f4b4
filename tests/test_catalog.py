import hashlib
import itertools
import os
import re
import subprocess
import sys

import pytest

import hurwitz
from hurwitz import catalog
from hurwitz.catalog import (
    enumerate_compatible,
    read_catalog,
    run_catalog,
    summary_lines,
)
from hurwitz.core import (
    KLEIN,
    PROJECTIVE,
    SPHERE,
    TORUS,
    BranchDatum,
    Partition,
    check_compatibility,
    format_datum,
    infer_cover,
    partitions_of,
)
from conftest import enumerate_compatible_reference


def brute_compatible_triples(d):
    """Independent generator: every triple of non-trivial partitions with
    every inferred cover, filtered by the full compatibility check."""
    menu = [p for p in partitions_of(d) if not p.is_trivial]
    out = set()
    for combo in itertools.product(menu, repeat=3):
        for cover in infer_cover(SPHERE, 3, d, combo):
            datum = BranchDatum(cover, SPHERE, d, tuple(combo))
            if check_compatibility(datum).compatible:
                out.add(datum)
    return out


class TestEnumerate:
    def test_degree_two(self):
        got = list(enumerate_compatible(2, range(0, 7), SPHERE, SPHERE))
        assert [format_datum(x) for x in got] == ["d=2 cover=O0 base=O0 parts=[2|2]"]
        unfiltered = list(enumerate_compatible(2, range(0, 7), SPHERE))
        assert len(unfiltered) == 3  # torus and genus-2 covers join in

    def test_degree_four_content(self):
        got = set(enumerate_compatible(4, [3], SPHERE))
        assert (
            BranchDatum(SPHERE, SPHERE, 4,
                        (Partition((3, 1)), Partition((2, 2)), Partition((2, 2))))
            in got
        )
        assert (
            BranchDatum(SPHERE, SPHERE, 4,
                        (Partition((2, 2)), Partition((2, 2)), Partition((2, 2))))
            in got
        )

    def test_matches_independent_oracle(self):
        for d in (4, 5, 6):
            ours = set(enumerate_compatible(d, [3], SPHERE))
            assert ours == brute_compatible_triples(d)

    def test_each_exactly_once(self):
        got = [format_datum(x) for x in enumerate_compatible(6, range(0, 5), SPHERE)]
        assert len(got) == len(set(got))

    def test_many_points_need_no_deep_recursion(self):
        # the depth of the multiset walk is bounded by the menu, not by n
        got = [format_datum(x) for x in enumerate_compatible(2, [1500])]
        assert got == ["d=2 cover=O749 base=O0 parts=[" + "|".join(["2"] * 1500) + "]"]

    def test_empty_range(self):
        assert list(enumerate_compatible(5, [], SPHERE)) == []

    def test_cover_filter(self):
        toruses = list(enumerate_compatible(6, [3], SPHERE, TORUS))
        assert toruses
        assert all(x.cover == TORUS for x in toruses)

    @pytest.mark.parametrize("base", [SPHERE, TORUS, PROJECTIVE, KLEIN], ids=str)
    def test_stream_equals_reference(self, base):
        # the Euler cut drops only multisets that no cover can take
        for d, n_values in [*((d, range(-1, 6)) for d in range(2, 9)), (12, [3])]:
            got = list(enumerate_compatible(d, n_values, base))
            assert got == list(enumerate_compatible_reference(d, n_values, base)), d
        for cover in {x.cover for x in enumerate_compatible(6, [4], base)}:
            want = list(enumerate_compatible_reference(6, [4], base, cover))
            assert list(enumerate_compatible(6, [4], base, cover)) == want, cover


def test_import_leaves_the_process_pool_out():
    # run_catalog imports it only for workers > 1
    code = "import sys, hurwitz; print('concurrent.futures.process' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hurwitz.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out == ["False"]


class TestRunCatalog:
    def test_degree_four_exceptional_set(self, tmp_path):
        out = tmp_path / "cat.tsv"
        records = run_catalog(4, 6, out_path=str(out))
        exceptional = {
            format_datum(r.datum) for r in records if r.verdict == "exceptional"
        }
        assert exceptional == {
            "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]",
            "d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2|2,2]",
            "d=4 cover=O2 base=O0 parts=[3,1|2,2|2,2|2,2|2,2]",
            "d=4 cover=O3 base=O0 parts=[3,1|2,2|2,2|2,2|2,2|2,2]",
        }
        assert out.exists()

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        run_catalog(3, 5, out_path=str(a))
        run_catalog(3, 5, out_path=str(b))

        def stable(path):
            rows = []
            for line in path.read_text().splitlines(keepends=True):
                if line.startswith("#"):
                    rows.append(line)
                else:
                    rows.append("\t".join(line.split("\t")[:-1]))
            return rows

        assert stable(a) == stable(b)

    def test_file_bytes_are_pinned(self, tmp_path):
        # every line but the wall-time column: the verdicts, tags, witness
        # texts and node counts of all 1,718 records, and the footer
        out = tmp_path / "cat.tsv"
        run_catalog(7, 4, out_path=str(out))
        stable = "".join(
            (line.rsplit("\t", 1)[0] if "\t" in line else line) + "\n"
            for line in out.read_text(encoding="utf-8").splitlines()
        )
        assert hashlib.md5(stable.encode()).hexdigest() == "1f1f1f38cae9e1a3b4ce9ea67851b344"

    def test_resume_equivalence(self, tmp_path):
        full = tmp_path / "full.tsv"
        part = tmp_path / "part.tsv"
        run_catalog(3, 5, out_path=str(full))
        full_lines = [
            l for l in full.read_text().splitlines(keepends=True) if not l.startswith("#")
        ]
        with open(part, "w") as fh:
            fh.write("# hurwitz-catalog partial\n")
            fh.writelines(full_lines[: len(full_lines) // 2])
        resumed = run_catalog(3, 5, out_path=str(part), resume=True)
        finished = read_catalog(str(part))
        want = {l.split("\t")[0] for l in full_lines}
        assert {format_datum(r.datum) for r in finished} == want
        assert {format_datum(r.datum) for r in resumed} == want

    def test_resumed_file_equals_uninterrupted_run(self, tmp_path):
        full = tmp_path / "full.tsv"
        part = tmp_path / "part.tsv"
        run_catalog(5, 3, out_path=str(full))
        run_catalog(4, 3, out_path=str(part))
        run_catalog(5, 3, out_path=str(part), resume=True)

        def without_ms(path):
            return [
                line if line.startswith("#") else line.rsplit("\t", 1)[0]
                for line in path.read_text().splitlines(keepends=True)
            ]

        assert without_ms(part) == without_ms(full)
        assert sum(line.startswith("# total=") for line in without_ms(part)) == 1

    def test_corrupt_resume_reports_line(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("# header\ngarbage line without tabs\n")
        with pytest.raises(ValueError, match="line 2"):
            run_catalog(3, 5, out_path=str(bad), resume=True)

    @staticmethod
    def check_rejected(tmp_path, changes, match, lineno=3, d_max=3):
        """Replace columns (index: text) of the record on line lineno of a
        d <= d_max, n <= 3 catalog; reading and resuming the file must
        both fail on it with an error that contains match."""
        path = tmp_path / "cat.tsv"
        run_catalog(d_max, 3, out_path=str(path))
        lines = path.read_text().splitlines()
        cols = lines[lineno - 1].split("\t")
        for column, value in changes.items():
            cols[column] = value
        lines[lineno - 1] = "\t".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(match)):
            read_catalog(str(path))
        with pytest.raises(ValueError, match=re.escape(match)):
            run_catalog(d_max, 3, out_path=str(path), resume=True)

    @pytest.mark.parametrize(
        "column, value",
        [
            pytest.param(4, "x1", id="4"),
            pytest.param(5, "x1", id="5"),
            # int() and float() take these, but the columns would not
            # round trip: nodes are decimal digits, ms finite and >= 0
            pytest.param(4, "-5", id="4-negative"),
            pytest.param(4, "1_000", id="4-underscore"),
            pytest.param(4, " 7 ", id="4-spaces"),
            pytest.param(5, "nan", id="5-nan"),
            pytest.param(5, "inf", id="5-inf"),
            pytest.param(5, "-inf", id="5-minus-inf"),
            pytest.param(5, "-2.5", id="5-negative"),
        ],
    )
    def test_non_numeric_column_reports_line(self, tmp_path, column, value):
        self.check_rejected(tmp_path, {column: value}, "corrupt catalog line 3: ")

    def test_unknown_verdict_reports_line(self, tmp_path):
        self.check_rejected(tmp_path, {1: "BOGUS"}, "corrupt catalog line 3: unknown verdict")

    # in a d <= 4 catalog, line 3 is d=2 [2|2], realizable, which
    # (1 2);(1 2) realizes, and line 9 the exceptional d=4 [3,1|2,2|2,2]
    @pytest.mark.parametrize(
        "lineno, changes, match",
        [
            pytest.param(3, {3: "garbage;(9 9)"}, "bad cycle notation", id="unparsable"),
            pytest.param(3, {3: "(1 2);(9 9)"}, "point 9 out of range 1..2", id="out-of-range"),
            pytest.param(3, {3: "(1 2);()"}, "the witness does not realize", id="wrong-product"),
            pytest.param(3, {3: "(1 2)"}, "the witness does not realize", id="one-permutation"),
            pytest.param(
                3, {1: "EXCEPTIONAL", 3: "(1 2);(1 2)"},
                "only a REALIZABLE record carries a witness, not EXCEPTIONAL",
                id="exceptional",
            ),
            pytest.param(
                9, {3: "garbage;(9 9)"}, "only a REALIZABLE record carries a witness",
                id="d4-exception",
            ),
        ],
    )
    def test_unchecked_witness_reports_line(self, tmp_path, lineno, changes, match):
        self.check_rejected(
            tmp_path, changes, f"corrupt catalog line {lineno}: {match}", lineno, d_max=4
        )

    # each line is refused for what classify(datum, 0) says of its datum:
    # line 9 of a d <= 4 catalog is the exceptional d=4 [3,1|2,2|2,2],
    # decided by the rules
    @pytest.mark.parametrize(
        "changes, match",
        [
            pytest.param(
                {1: "REALIZABLE", 2: "no-such-tag"},
                "the datum is EXCEPTIONAL Thm-EKS-d4+5, no witness",
                id="wrong-tag",
            ),
            pytest.param(
                {1: "INCOMPATIBLE", 2: "Thm-EKS-d4"},
                "the datum is EXCEPTIONAL Thm-EKS-d4+5, no witness",
                id="wrong-verdict",
            ),
            pytest.param(
                {0: "d=5 cover=O0 base=O0 parts=[4,1|2,2,1]",
                 1: "EXCEPTIONAL", 2: "search-exhausted"},
                "the datum is INCOMPATIBLE violated:1,2, no witness",
                id="incompatible",
            ),
            pytest.param(
                # exceptional, decided by the search alone
                {0: "d=9 cover=O0 base=O0 parts=[5,2,2|3,3,3|2,2,2,2,1]",
                 1: "REALIZABLE", 2: "search-found"},
                "REALIZABLE search-found without a witness is not an outcome of the search",
                id="found-without-witness",
            ),
        ],
    )
    def test_verdict_the_datum_contradicts_reports_line(self, tmp_path, changes, match):
        self.check_rejected(tmp_path, changes, f"corrupt catalog line 9: {match}", 9, d_max=4)

    def test_resume_needs_out(self, monkeypatch):
        monkeypatch.setattr(catalog, "classify", None)  # nothing is classified
        with pytest.raises(ValueError, match="resume needs an output file"):
            run_catalog(3, 3, resume=True)

    def test_witnesses_read_back(self, tmp_path):
        path = tmp_path / "cat.tsv"
        records = run_catalog(5, 3, out_path=str(path))
        assert sum(bool(r.witness) for r in records) == 6
        fields = lambda rs: [(r.datum, r.verdict, r.tag, r.witness, r.nodes) for r in rs]
        assert fields(read_catalog(str(path))) == fields(records)

    def test_fresh_run_parses_no_datum(self, tmp_path, monkeypatch):
        def refuse(line):
            raise AssertionError(f"datum parsed: {line}")

        path = tmp_path / "cat.tsv"
        monkeypatch.setattr(catalog, "parse_datum", refuse)
        records = run_catalog(5, 4, out_path=str(path))
        monkeypatch.undo()
        strip = lambda rs: [(r.datum, r.verdict, r.tag, r.witness, r.nodes) for r in rs]
        assert strip(read_catalog(str(path))) == strip(records)

    @pytest.mark.parametrize("where", ["missing/cat.tsv", "."])
    def test_unwritable_out_fails_before_classifying(self, tmp_path, monkeypatch, where):
        def refuse(*args):
            raise AssertionError("classified before the output path was checked")

        monkeypatch.setattr(catalog, "classify", refuse)
        with pytest.raises(OSError):
            run_catalog(4, 3, out_path=str(tmp_path / where))

    @pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -2}, {"budget": -3}])
    def test_refuses_workers_below_one_and_negative_budget(self, kwargs):
        with pytest.raises(ValueError, match="must be at least"):
            run_catalog(3, 4, **kwargs)

    def test_workers_match_sequential(self, tmp_path):
        seq = run_catalog(3, 4)
        par = run_catalog(3, 4, workers=2)
        strip = lambda rs: [
            (format_datum(r.datum), r.verdict, r.tag, r.witness, r.nodes) for r in rs
        ]
        assert strip(seq) == strip(par)

    def test_summary_lines(self):
        records = run_catalog(4, 3)
        lines = summary_lines(records)
        assert any(l.startswith("# total=") for l in lines)
        assert any(l.startswith("# verdict exceptional=1") for l in lines)
        assert any(l.startswith("# prime-degree-exceptional=0") for l in lines)


class TestSearchExhaustedReconfirmation:
    def test_naive_oracle_agrees_on_three_point_records(self):
        from hurwitz.criteria import classify
        from conftest import naive_search_n3

        reconfirmed = 0
        for d in range(4, 9):
            for datum in enumerate_compatible(d, [3], SPHERE):
                verdict = classify(datum)
                if verdict.kind == "exceptional" and "search-exhausted" in verdict.tags:
                    assert not naive_search_n3(datum), format_datum(datum)
                    reconfirmed += 1
        assert reconfirmed > 0
