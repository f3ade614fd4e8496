import pytest

from distmagic import cli, constructors, magic, rearrange
from distmagic.cli import main
from distmagic.constructors import label_direct, label_c4
from distmagic.graphs import complete_bipartite, cycle, format_edge_list, parse_edge_list
from distmagic.magic import parse_labeling, verify_balanced
from distmagic.products import DIRECT, product
from test_cli_golden import CONSTRUCT_GOLDEN, PRODUCT_GOLDEN


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_construct_c4_and_verify_roundtrip(tmp_path, capsys):
    lab_file = tmp_path / "c4.lab"
    status, out, _ = run(capsys, "construct", "--kind", "c4", "--out", str(lab_file))
    assert status == 0 and out == ""
    assert lab_file.read_text() == "0 1\n1 2\n2 4\n3 3\n"
    status, out, _ = run(
        capsys, "verify", "--graph", "cycle:4", "--labeling", str(lab_file), "--require", "balanced"
    )
    assert status == 0
    assert "is_distance_magic=true" in out
    assert "magic_constant=5" in out
    assert "is_balanced=true" in out


def test_verify_negative_verdict_exit_1(tmp_path, capsys):
    lab_file = tmp_path / "c5.lab"
    lab_file.write_text("".join(f"{v} {v + 1}\n" for v in range(5)))
    status, out, _ = run(capsys, "verify", "--graph", "cycle:5", "--labeling", str(lab_file))
    assert status == 1
    assert "is_distance_magic=false" in out


def test_verify_text_format(tmp_path, capsys):
    lab_file = tmp_path / "c4.lab"
    run(capsys, "construct", "--kind", "c4", "--out", str(lab_file))
    status, out, _ = run(
        capsys, "verify", "--graph", "cycle:4", "--labeling", str(lab_file), "--format", "text"
    )
    assert status == 0 and "k = 5" in out


def test_table16_matches_construct_and_is_deterministic(capsys):
    status, table, _ = run(capsys, "table16")
    assert status == 0
    status, built, _ = run(capsys, "construct", "--kind", "cycle-product", "--m", "16", "--n", "16")
    assert status == 0
    assert table == built
    status, again, _ = run(capsys, "table16")
    assert table == again
    assert table.splitlines()[0] == "16 16 514"


def test_grid_verify_roundtrip(tmp_path, capsys):
    grid_file = tmp_path / "c8c8.grid"
    status, _, _ = run(
        capsys, "construct", "--kind", "cycle-product", "--m", "8", "--n", "8", "--out", str(grid_file)
    )
    assert status == 0
    status, out, _ = run(capsys, "verify", "--grid", str(grid_file))
    assert status == 0
    assert "magic_constant=130" in out
    assert "is_balanced=false" in out


def test_cycle_product_list_labels_the_direct_product(tmp_path, capsys):
    lab_file, edge_file, grid_file = (tmp_path / name for name in ("p.lab", "p.edges", "p.grid"))
    construct = ["construct", "--kind", "cycle-product", "--m", "8", "--n", "12"]
    assert run(capsys, *construct, "--format", "list", "--out", str(lab_file))[0] == 0
    assert run(capsys, "product", "--kind", "direct", "cycle:8", "cycle:12",
               "--out", str(edge_file))[0] == 0
    status, out, _ = run(capsys, "verify", "--graph", str(edge_file), "--labeling", str(lab_file))
    assert status == 0
    assert "is_distance_magic=true" in out and "magic_constant=194" in out
    # the list and the grid carry one labeling, vertex (i, j) being i * 12 + j
    assert run(capsys, *construct, "--out", str(grid_file))[0] == 0
    grid_labeling = constructors.parse_grid(grid_file.read_text())[0]
    assert parse_labeling(lab_file.read_text(), 96) == grid_labeling


def test_construct_direct_with_builtin_h_labeling(tmp_path, capsys):
    lab_file = tmp_path / "prod.lab"
    edge_file = tmp_path / "prod.edges"
    status, _, _ = run(
        capsys, "construct", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:4",
        "--out", str(lab_file),
    )
    assert status == 0
    status, _, _ = run(
        capsys, "product", "--kind", "direct", "cycle:3", "cycle:4", "--out", str(edge_file)
    )
    assert status == 0
    status, out, _ = run(
        capsys, "verify", "--graph", str(edge_file), "--labeling", str(lab_file),
        "--require", "balanced",
    )
    assert status == 0 and "magic_constant=26" in out


def test_construct_lexicographic_with_labeling_file(tmp_path, capsys):
    h_lab = tmp_path / "h.lab"
    h_lab.write_text("0 1\n1 2\n2 4\n3 3\n")
    status, out, _ = run(
        capsys, "construct", "--kind", "lexicographic", "--g", "cycle:3", "--h", "cycle:4",
        "--h-labeling", str(h_lab),
    )
    assert status == 0
    labeling = parse_labeling(out, 12)
    p = product("lexicographic", cycle(3), cycle(4))
    assert verify_balanced(p.base, labeling).magic_constant == 65


def test_construct_requires_h_labeling_for_unknown_h(capsys):
    # C6 is regular, but no two of its vertices share a neighborhood
    status, _, err = run(capsys, "construct", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:6")
    assert status == 2
    assert err == "error: --h 'cycle:6' is not balanced distance magic\n"
    # unequal bipartition parts make K_{2,6} irregular
    status, _, err = run(capsys, "construct", "--kind", "direct", "--g", "cycle:3", "--h", "kbip:2,6")
    assert status == 2
    assert err == "error: --h 'kbip:2,6' is not balanced distance magic\n"


@pytest.mark.parametrize("command", ["construct", "couple"])
@pytest.mark.parametrize("h,padded", [("cycle:4", "cycle:04"), ("kbip:4,4", "kbip:4,04")])
def test_builtin_h_labeling_reads_parsed_parameters(capsys, command, h, padded):
    argv = [command, "--kind", "direct", "--g", "cycle:3", "--h"]
    status, expected, _ = run(capsys, *argv, h)
    assert status == 0
    assert run(capsys, *argv, padded) == (0, expected, "")


@pytest.mark.parametrize(
    "command,h",
    [("construct", h) for h in ("cycle:4", "kbip:4,4", "kminusm:6", "empty:4")]
    # coupling rejects the edgeless product with empty:4
    + [("couple", h) for h in ("cycle:4", "kbip:4,4", "kminusm:6")],
)
def test_edge_list_h_is_labeled_as_its_spec(tmp_path, monkeypatch, capsys, command, h):
    # the balanced labeling of --h is read off the graph, whatever names it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.edges").write_text(format_edge_list(cli.parse_graph_spec(h)))
    argv = [command, "--kind", "direct", "--g", "cycle:3", "--h"]
    status, expected, _ = run(capsys, *argv, h)
    assert status == 0
    assert run(capsys, *argv, "h.edges") == (0, expected, "")


def test_balanced_edge_list_h_needs_no_labeling(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    status, _, _ = run(capsys, "product", "--kind", "direct", "cycle:4", "kbip:2,2",
                       "--out", "h.edges")
    assert status == 0
    status, _, _ = run(capsys, "construct", "--kind", "lexicographic", "--g", "cycle:3",
                       "--h", "h.edges", "--out", "p.lab")
    assert status == 0
    status, _, _ = run(capsys, "product", "--kind", "lexicographic", "cycle:3", "h.edges",
                       "--out", "p.edges")
    assert status == 0
    status, out, _ = run(capsys, "verify", "--graph", "p.edges", "--labeling", "p.lab",
                         "--require", "balanced")
    assert status == 0 and "is_balanced=true" in out


def test_couple_with_kbip_h_factor(capsys):
    status, out, _ = run(
        capsys, "couple", "--kind", "direct", "--g", "cycle:3", "--h", "kbip:4,4", "--seed", "3"
    )
    assert status == 0
    lines = out.splitlines()
    factor_line = next(line for line in lines if line.startswith("factor="))
    labeling_lines = lines[lines.index(factor_line) + 1 :]
    from distmagic.graphs import complete_bipartite

    labeling = parse_labeling("\n".join(labeling_lines) + "\n", 8)
    assert verify_balanced(complete_bipartite(4, 4), labeling).is_balanced


def test_product_output_parses(capsys):
    status, out, _ = run(capsys, "product", "--kind", "cartesian", "cycle:3", "path:2")
    assert status == 0
    g = parse_edge_list(out)
    assert g.n == 6 and len(g.edges) == 9


def test_search_found_and_none(capsys):
    status, out, _ = run(capsys, "search", "--graph", "cycle:4")
    assert status == 0
    assert "outcome=found" in out and "magic_constant=5" in out and "witness=1 2 4 3" in out
    status, out, _ = run(capsys, "search", "--graph", "cycle:6")
    assert status == 1
    assert "outcome=exhausted_none" in out


def test_search_budget_flag(tmp_path, capsys):
    edge_file = tmp_path / "c5c4.edges"
    run(capsys, "product", "--kind", "direct", "cycle:5", "cycle:4", "--out", str(edge_file))
    status, out, _ = run(capsys, "search", "--graph", str(edge_file), "--budget", "1000")
    assert status == 1
    assert "outcome=budget_exceeded" in out
    assert "forced_equal=" not in out
    # direct C3 x C5 is certified by the kernel before the budget matters
    edge_file = tmp_path / "c3c5.edges"
    run(capsys, "product", "--kind", "direct", "cycle:3", "cycle:5", "--out", str(edge_file))
    status, out, _ = run(capsys, "search", "--graph", str(edge_file), "--budget", "1000")
    assert status == 1
    assert "outcome=exhausted_none" in out and "nodes=0" in out
    assert out.endswith("prunes=kernel_forced_equal:1\nforced_equal=0,1\n")


def test_search_reports_forced_pair(capsys):
    status, out, _ = run(capsys, "search", "--graph", "cycle:6")
    assert status == 1
    assert out == (
        "outcome=exhausted_none\nnodes=0\nsteps=0\n"
        "prunes=kernel_forced_equal:1\nforced_equal=0,1\n"
    )


def test_classify_exit_codes(capsys):
    status, out, _ = run(capsys, "classify", "direct", "6", "6")
    assert status == 1 and out.strip() == "not_distance_magic"
    status, out, _ = run(capsys, "classify", "direct", "4", "7")
    assert status == 0 and out.strip() == "balanced_distance_magic"
    status, out, _ = run(capsys, "classify", "direct", "8", "12")
    assert status == 0 and out.strip() == "distance_magic_not_balanced"
    status, out, _ = run(capsys, "classify", "cartesian", "6", "6")
    assert status == 0 and out.strip() == "distance_magic"
    status, out, _ = run(capsys, "classify", "cartesian", "5", "10")
    assert status == 0 and out.strip() == "distance_magic"
    status, out, _ = run(capsys, "classify", "cartesian", "6", "10")
    assert status == 1 and out.strip() == "not_distance_magic"
    status, out, _ = run(capsys, "classify", "cycle", "6")
    assert status == 1
    status, out, _ = run(capsys, "classify", "lex", "5", "4")
    assert status == 0


def test_eit_schedule_output(tmp_path, capsys):
    lab_file = tmp_path / "c4.lab"
    run(capsys, "construct", "--kind", "c4", "--out", str(lab_file))
    status, out, _ = run(capsys, "eit", "--graph", "cycle:4", "--labeling", str(lab_file))
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "teams=4 rounds=2 k=5"
    assert all(line.endswith("total=5") for line in lines[1:])


def test_eit_rejects_irregular(tmp_path, capsys):
    lab_file = tmp_path / "p3.lab"
    lab_file.write_text("0 1\n1 3\n2 2\n")
    status, _, err = run(capsys, "eit", "--graph", "path:3", "--labeling", str(lab_file))
    assert status == 2 and "regular" in err


def test_couple_direct_scrambled(capsys):
    status, out, _ = run(
        capsys, "couple", "--kind", "direct", "--g", "cycle:4", "--h", "cycle:4", "--seed", "2"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("outcome=")
    factor_line = next(line for line in lines if line.startswith("factor="))
    axis = factor_line.split("=")[1]
    labeling_lines = lines[lines.index(factor_line) + 1 :]
    labeling = parse_labeling("\n".join(labeling_lines) + "\n", 4)
    assert verify_balanced(cycle(4), labeling).is_balanced
    assert axis in ("G", "H")


def test_couple_lexicographic(capsys):
    status, out, _ = run(capsys, "couple", "--kind", "lexicographic", "--g", "cycle:5", "--h", "cycle:4")
    assert status == 0
    assert "outcome=closed_H_layer" in out and "factor=H" in out


def test_couple_rejects_edgeless_direct_product(capsys):
    # an isolated vertex forces k = 0, so only in an edgeless product may twins
    # have unequal factor neighborhoods; the lemmas need them equal.  Coupled
    # anyway, this input would print the C4 labeling 1 4 2 3, which is not
    # balanced.
    status, out, err = run(
        capsys, "couple", "--kind", "direct", "--g", "cycle:4", "--h", "empty:4", "--seed", "1"
    )
    assert status == 2 and out == ""
    assert "product has no edges" in err


def test_couple_lexicographic_needs_a_closed_layer(capsys):
    # an edgeless H leaves every scrambled twin free to leave its layer
    argv = ["couple", "--kind", "lexicographic", "--g", "cycle:4", "--h", "empty:4", "--seed"]
    assert run(capsys, *argv, "1") == (2, "", "error: no twin-closed H-layer in this labeling\n")
    expected = "outcome=closed_H_layer\nclosed_g=1\nswaps=0\nfactor=H\n0 1\n1 2\n2 4\n3 3\n"
    assert run(capsys, *argv, "4") == (0, expected, "")


def test_couple_with_labeling_file(tmp_path, capsys):
    lab = label_direct(cycle(3), cycle(4), label_c4())
    lab_file = tmp_path / "prod.lab"
    lab_file.write_text("".join(f"{v} {x}\n" for v, x in enumerate(lab.values)))
    status, out, _ = run(
        capsys, "couple", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:4",
        "--labeling", str(lab_file),
    )
    assert status == 0 and "closed_g=0" in out


# bad parameters, an unknown name and a wrong parameter count
BAD_SPECS = [
    "cycle:2", "path:0", "empty:-1", "kbip:0,3", "kminusm:5", "kminusm:0", "nonesuch:3", "cycle:3,4",
]

# inputs above the size limits, rejected before anything is allocated; the
# test writes huge.edges, whose header is "1000000000 0"
TOO_LARGE = [
    ["search", "--graph", "empty:1000000000"],
    ["search", "--graph", "kbip:100000,100000"],
    ["product", "--kind", "direct", "cycle:2000", "cycle:2000"],
    ["search", "--graph", "huge.edges"],
    ["construct", "--kind", "cycle-product", "--m", "100000", "--n", "100000"],
    ["verify", "--grid", "huge.grid"],
]


# --out paths that cannot be opened for writing: a directory, and a file in
# a directory that does not exist
UNWRITABLE = ["adir", "missing/c4.lab"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "cycle:4"],  # missing labeling
        ["construct", "--kind", "cycle-product", "--m", "6", "--n", "8"],  # bad modulus
        ["construct", "--kind", "c4", "--format", "grid"],  # grid is cycle-product only
        ["search", "--graph", "cycle:two"],
        ["search", "--graph", "/nonexistent/file"],
        ["classify", "direct", "6"],
        ["eit", "--graph", "cycle:4", "--labeling", "/nonexistent/file"],
        ["product", "--kind", "strong", "cycle:3", "cycle:3"],
        ["nonesuch"],
    ]
    + [["search", "--graph", spec] for spec in BAD_SPECS]
    + TOO_LARGE
    + [["search", "--graph", "cycle:4", "--budget", budget] for budget in ("0", "-3")]
    + [["verify", "--grid", grid] for grid in ("2x4.grid", "4x1.grid")]  # cycle lengths below 3
    + [["verify", "--grid", "repeat.grid"]]  # label 8 twice, 9 missing
    + [["product", "--kind", "direct", "accent.edges", "cycle:3"]]  # UTF-8 bytes in a line
    + [["construct", "--kind", "c4", "--out", out] for out in UNWRITABLE]
    + [["verify", "--grid", "k0.grid"]]  # distance magic with k = 194, header k = 0
    + [["verify", "--grid", "ok.grid", "--graph", "no.edges", "--labeling", "no.lab"]],
)
def test_input_errors_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.edges").write_text("1000000000 0\n")
    (tmp_path / "huge.grid").write_text("2048 1024 0\n")
    (tmp_path / "2x4.grid").write_text("2 4 18\n5 6 7 8\n1 2 3 4\n")
    (tmp_path / "4x1.grid").write_text("4 1 10\n4\n3\n2\n1\n")
    (tmp_path / "repeat.grid").write_text("3 3 20\n7 8 8\n4 5 6\n1 2 3\n")
    (tmp_path / "accent.edges").write_bytes(b"2 1\n0 1\xc3\xa9\n")
    grid = constructors.label_cycle_product(8, 12)
    (tmp_path / "k0.grid").write_text(constructors.format_grid(grid, 8, 12, 0))
    (tmp_path / "ok.grid").write_text(constructors.format_grid(grid, 8, 12, 194))
    (tmp_path / "adir").mkdir()
    status, _, err = run(capsys, *argv)
    assert status == 2
    if argv[-1] in UNWRITABLE:
        assert err.startswith(f"error: cannot write {argv[-1]!r}: ")
    if "accent.edges" in argv:
        assert err == "error: cannot read 'accent.edges': byte 0xc3 at offset 7 is not ASCII\n"
    if argv[-1] in ("2x4.grid", "4x1.grid"):
        # the direct product of cycles needs both lengths >= 3
        assert "line 1: grid dimensions must be cycle lengths >= 3, got m=" in err
    if argv[-1] == "repeat.grid":
        assert err == (
            "error: grid entries are not a bijection onto 1..9: "
            "duplicate labels [8]; missing labels [9]\n"
        )
    if argv[-1] == "k0.grid":
        assert err == "error: line 1: header k=0 disagrees with the grid's magic constant 194\n"
    if "ok.grid" in argv:
        # --graph and --labeling were ignored beside --grid
        assert err == "error: verify takes --grid, or --graph with --labeling, not both\n"
    if argv[-1] in BAD_SPECS:
        # the message names the spec it rejects
        assert repr(argv[-1]) in err
    if argv[-1] == "nonesuch:3":
        assert "cycle, path, empty, kbip, kminusm" in err
    if argv in TOO_LARGE:
        assert "exceed the limit of" in err
    if argv[-1] in ("huge.edges", "huge.grid"):
        # a file's sizes are rejected from its header
        assert err.startswith("error: line 1: ")
    if "--budget" in argv:
        assert "budget must be positive" in err


@pytest.mark.parametrize("argv,message", [
    (["construct", "--kind", "cycle-product", "--m", "8"], "cycle-product needs --m and --n"),
    (["construct", "--kind", "complete-bipartite"], "complete-bipartite needs --n (labels K_{2n,2n})"),
    (["construct", "--kind", "complete-minus-matching"],
     "complete-minus-matching needs --n (labels K_{2n} minus M)"),
    (["construct", "--kind", "direct", "--g", "cycle:3"], "direct needs --g and --h"),
    (["classify", "cycle", "4", "5"], "classify cycle takes one cycle length"),
])
def test_missing_arguments_exit_2_with_their_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_spec_parsing_kinds(capsys):
    for spec, n, m in [("kbip:2,3", 5, 6), ("kminusm:6", 6, 12), ("empty:4", 4, 0), ("path:4", 4, 3)]:
        status, out, _ = run(capsys, "product", "--kind", "cartesian", spec, "empty:1")
        assert status == 0
        g = parse_edge_list(out)
        assert g.n == n and len(g.edges) == m


def test_outputs_are_byte_deterministic(capsys):
    first = run(capsys, "search", "--graph", "kminusm:6")
    second = run(capsys, "search", "--graph", "kminusm:6")
    assert first == second


@pytest.mark.parametrize(
    "kind,n,spec",
    [("complete-bipartite", 2, "kbip:4,4"), ("complete-minus-matching", 3, "kminusm:6")],
)
def test_constructor_roundtrips_through_files(tmp_path, capsys, kind, n, spec):
    lab_file = tmp_path / "x.lab"
    status, _, _ = run(capsys, "construct", "--kind", kind, "--n", str(n), "--out", str(lab_file))
    assert status == 0
    status, out, _ = run(
        capsys, "verify", "--graph", spec, "--labeling", str(lab_file), "--require", "balanced"
    )
    assert status == 0 and "is_balanced=true" in out


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    # an argparse error and a help request go through the parser main() keeps
    # before the golden commands do; every command must print and return what
    # it does through a newly built parser
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repeat.grid").write_text("3 3 20\n7 8 8\n4 5 6\n1 2 3\n")
    commands = (
        [["nonesuch"], ["verify", "--help"]]
        + [["construct", "--kind", kind, "--g", g, "--h", h] for kind, g, h, _ in CONSTRUCT_GOLDEN]
        + [["product", "--kind", kind, "cycle:3", h] for kind, h, _ in PRODUCT_GOLDEN]
        + [
            ["construct", "--kind", "c4", "--out", "c4.lab"],
            ["verify", "--graph", "cycle:4", "--labeling", "c4.lab", "--format", "text"],
            ["construct", "--kind", "cycle-product", "--m", "8", "--n", "12", "--out", "g.grid"],
            ["verify", "--grid", "g.grid"],
            ["verify", "--grid", "repeat.grid"],
            ["search", "--graph", "cycle:two"],
        ]
    )
    main(["classify", "cycle", "4"])
    capsys.readouterr()
    shared = cli._PARSER
    results = []
    for argv in commands:
        reused = run(capsys, *argv)
        with monkeypatch.context() as fresh_parser:
            fresh_parser.setattr(cli, "_PARSER", None)
            assert run(capsys, *argv) == reused
        assert cli._PARSER is shared
        results.append(reused)
    assert results[0][0] == 2 and "invalid choice: 'nonesuch'" in results[0][2]
    assert results[1][0] == 0 and results[1][1].startswith("usage: distmagic verify")
    # help is laid out for the terminal width at the time it is printed
    help_at = {}
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        help_at[columns] = run(capsys, "verify", "--help")
        with monkeypatch.context() as fresh_parser:
            fresh_parser.setattr(cli, "_PARSER", None)
            assert run(capsys, "verify", "--help") == help_at[columns]
    assert help_at["50"] != help_at["150"]


C4_LAB = "0 1\n1 2\n2 4\n3 3\n"
C8XC12_GRID = constructors.format_grid(constructors.label_cycle_product(8, 12), 8, 12, 194)
C3XC4_LAB = magic.format_labeling(label_direct(cycle(3), cycle(4), label_c4()))
# source -> (file name, its text, argv, lengths of the labelings checked)
CHECKED_ONCE = {
    "grid": ("g.grid", C8XC12_GRID, ["verify", "--grid", "g.grid"], [96]),
    "labeling": ("c4.lab", C4_LAB,
                 ["verify", "--graph", "cycle:4", "--labeling", "c4.lab", "--require", "balanced"],
                 [4]),
    "eit": ("c4.lab", C4_LAB, ["eit", "--graph", "cycle:4", "--labeling", "c4.lab"], [4]),
    # the file's labeling only: the factor labeling couple extracts from it is
    # a bijection by construction (tests/test_couple_golden.py)
    "couple": ("c3xc4.lab", C3XC4_LAB,
               ["couple", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:4",
                "--labeling", "c3xc4.lab"], [12]),
}


@pytest.mark.parametrize("source", CHECKED_ONCE)
def test_verify_checks_the_bijection_once(tmp_path, monkeypatch, capsys, source):
    # a labeling is checked where it is made, and no verify call checks it again
    monkeypatch.chdir(tmp_path)
    name, text, argv, checked = CHECKED_ONCE[source]
    (tmp_path / name).write_text(text)
    calls = []

    def counted(values, *args):
        calls.append(len(values))
        return check(values, *args)

    check = magic._check_bijection
    monkeypatch.setattr(magic, "_check_bijection", counted)
    monkeypatch.setattr(constructors, "_check_bijection", counted)
    status, out, _ = run(capsys, *argv)
    assert status == 0
    if argv[0] == "verify":
        assert "is_distance_magic=true" in out
    assert calls == checked


def test_couple_verifies_the_product_once(monkeypatch, capsys):
    # make_balanced checks the product labeling where it enters; the scramble
    # and couple_layers carry balance by their lemmas and check nothing again
    calls = []

    def counted(g, labeling):
        calls.append(g.n)
        return check(g, labeling)

    check = rearrange.verify_balanced
    monkeypatch.setattr(rearrange, "verify_balanced", counted)
    status, _, _ = run(capsys, "couple", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:4")
    assert status == 0 and calls == [12]
    g, h = complete_bipartite(3, 3), cycle(4)
    bl = rearrange.make_balanced(product(DIRECT, g, h), label_direct(g, h, label_c4()))
    bl = rearrange.scramble_balanced(bl, 1)
    calls.clear()
    _, outcome = rearrange.couple_layers(bl)
    assert outcome.swaps > 0 and calls == []


@pytest.mark.parametrize("argv", [
    ["construct", "--kind", "direct", "--g", "cycle:3", "--h", "cycle:4"],
    ["construct", "--kind", "lexicographic", "--g", "cycle:3", "--h", "kbip:4,4"],
    ["search", "--graph", "cycle:4"],
])
def test_built_labelings_are_not_checked_again(monkeypatch, capsys, argv):
    # constructors and the search's witness are bijections by construction
    calls = []

    def counted(values, *args):
        calls.append(len(values))
        return check(values, *args)

    check = magic._check_bijection
    monkeypatch.setattr(magic, "_check_bijection", counted)
    monkeypatch.setattr(constructors, "_check_bijection", counted)
    status, out, _ = run(capsys, *argv)
    assert status == 0 and out
    if argv[0] == "search":
        assert out.startswith("outcome=found\n")
    assert calls == []
