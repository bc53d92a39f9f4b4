import pytest

from hurwitz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_compatible_datum(self, capsys):
        code, out, _ = run(capsys, "check", "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert code == 0
        assert out.splitlines()[0] == "compatible"
        assert "EXCEPTIONAL" in out

    def test_incompatible_exit_two(self, capsys):
        code, out, _ = run(capsys, "check", "d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2]")
        assert code == 2
        assert "violated: 1" in out

    def test_parse_error_exit_four(self, capsys):
        code, _, err = run(capsys, "check", "nonsense")
        assert code == 4
        assert "parse error" in err


class TestRealize:
    def test_witness_lines(self, capsys):
        code, out, _ = run(
            capsys, "realize", "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]", "--witness"
        )
        assert code == 0
        assert "REALIZABLE" in out
        assert sum(1 for l in out.splitlines() if l.startswith("tau[")) == 3

    def test_budget_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "realize",
            "d=9 cover=O0 base=O0 parts=[5,2,2|3,3,3|2,2,2,2,1]",
            "--budget",
            "0",
        )
        assert code == 3
        assert "UNKNOWN" in out


class TestEnumerate:
    def test_datum_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--d", "4", "--n-min", "3", "--n-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]" in lines
        assert all(l.startswith("d=4 ") for l in lines)

    def test_degree_below_two_exit_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--d", "1")
        assert code == 2
        assert out == ""
        assert err == "unsuitable input: degree must be at least 2\n"


class TestCatalog:
    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "cat.tsv"
        code, out, _ = run(
            capsys, "catalog", "--d-max", "3", "--n-max", "4", "--out", str(out_file)
        )
        assert code == 0
        assert "# total=" in out
        assert out_file.exists()


class TestDessin:
    def test_export(self, capsys):
        code, out, _ = run(capsys, "dessin", "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        assert code == 0
        assert any(l.startswith("vertex 1 ") for l in out.splitlines())
        assert any(l.startswith("face len=") for l in out.splitlines())

    def test_exceptional_has_no_dessin(self, capsys):
        code, out, _ = run(capsys, "dessin", "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert code == 0
        assert "EXCEPTIONAL" in out

    def test_wrong_base_exit_two(self, capsys):
        code, out, _ = run(capsys, "dessin", "d=4 cover=O3 base=O1 parts=[3,1|2,2]")
        assert code == 2


class TestDecompose:
    def test_blocks_and_factors(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]",
            "--k", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("k=3 blocks=") for l in lines)
        assert any(l.startswith("inner d=3 ") for l in lines)
        assert any(l.startswith("outer d=2 ") for l in lines)

    def test_no_system(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]",
            "--k", "2",
        )
        assert code == 0
        assert "no block system" in out

    @pytest.mark.parametrize("k", ["3", "4"])
    def test_block_size_not_a_proper_divisor(self, capsys, k):
        code, out, _ = run(
            capsys, "decompose", "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]", "--k", k,
        )
        assert code == 2
        assert out == f"--k {k} is not a proper divisor of d=4\n"


@pytest.mark.parametrize("command", [["dessin"], ["decompose", "--k", "3"]])
class TestSearchCommands:
    def test_incompatible_exit_two(self, capsys, command):
        code, out, _ = run(capsys, command[0], "d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2]",
                           *command[1:])
        assert code == 2
        assert out == "d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2] INCOMPATIBLE tag=violated:1\n"

    def test_budget_exit_three(self, capsys, command):
        code, out, _ = run(capsys, command[0], "d=9 cover=O0 base=O0 parts=[5,2,2|3,3,3|2,2,2,2,1]",
                           *command[1:], "--budget", "0")
        assert code == 3
        assert out == "d=9 cover=O0 base=O0 parts=[5,2,2|3,3,3|2,2,2,2,1] UNKNOWN tag=budget-exceeded\n"


@pytest.mark.parametrize("command", [["check"], ["realize"], ["dessin"], ["decompose", "--k", "2"]])
def test_degree_beyond_search_exit_two(capsys, command):
    # compatible, settled by no rule, and too large for the search's byte images
    datum = "d=258 cover=O0 base=O0 parts=[130,128|129,129|3," + ",".join(["1"] * 255) + "]"
    code, _, err = run(capsys, command[0], datum, *command[1:])
    assert code == 2
    assert err.startswith("unsuitable input: search handles degrees up to 256")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["check", "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"],
    ["realize", "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"],
    ["catalog", "--d-max", "3"],
    ["dessin", "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]"],
    ["decompose", "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]", "--k", "3"],
])
def test_negative_budget_exit_two(capsys, command):
    code, out, err = run(capsys, *command, "--budget", "-5")
    assert code == 2
    assert out == ""
    assert err == "unsuitable input: --budget must be at least 0, got -5\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_catalog_workers_below_one_exit_two(capsys, workers):
    code, out, err = run(capsys, "catalog", "--d-max", "3", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"unsuitable input: workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("where", ["missing/cat.tsv", "."])
def test_catalog_unwritable_out_exit_two(capsys, tmp_path, where):
    code, out, err = run(capsys, "catalog", "--d-max", "3", "--out", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert err.startswith("unsuitable input: [Errno ") and err.count("\n") == 1
