"""Parameter file format: parsing, serialization, validation, line numbers."""

import pytest

from tersoffmd.paramfile import (ParamFileError, builtin_params, load_params,
                                 parse_params, serialize_params)
from helpers import two_species_table

CARBON_LINE = ("C C C  3.0  1.0  0.0  38049.0  4.3484  -0.57058  0.72751"
               "  1.5724e-7  2.2119  346.74  1.95  0.15  3.4879  1393.6")


def test_builtin_carbon_parses_with_published_values():
    t = builtin_params("C")
    assert t.species == ("C",)
    p = t.entry(0, 0, 0)
    assert p.A == 1393.6
    assert p.B == 346.74
    assert p.lam1 == 3.4879
    assert p.lam2 == 2.2119
    assert p.lam3 == 0.0
    assert p.beta == 1.5724e-7
    assert p.eta == 0.72751
    assert p.c == 38049.0
    assert p.d == 4.3484
    assert p.h == -0.57058
    assert p.R == 1.95
    assert p.D == 0.15
    assert p.m == 3
    assert p.gamma == 1.0
    assert t.r_cut == 2.1


def test_comments_and_blank_lines_ignored():
    text = f"# header\n\n  # indented comment\n{CARBON_LINE}  # trailing\n\n"
    t = parse_params(text)
    assert t.entry(0, 0, 0).A == 1393.6


def test_round_trip_is_identity():
    t = builtin_params("C")
    t2 = parse_params(serialize_params(t))
    assert t2.species == t.species
    assert t2.entries == t.entries  # frozen dataclasses: exact equality

    t3 = two_species_table()
    t4 = parse_params(serialize_params(t3))
    assert t4.species == t3.species
    assert t4.entries == t3.entries


def test_two_species_table_lookup_conventions():
    t = two_species_table()
    assert t.nspecies == 2
    # pair factors come from entry (i, j, j)
    assert t.pair_entry(0, 1) == t.entry(0, 1, 1)
    assert t.pair_entry(0, 1) != t.entry(0, 1, 0)
    assert t.r_cut == max(p.r_cut for p in t.entries.values())


def test_wrong_token_count_names_line():
    text = "# comment\n" + " ".join(CARBON_LINE.split()[:-1])
    with pytest.raises(ParamFileError, match=r":2: expected 17 tokens.*got 16"):
        parse_params(text)


def test_extra_token_rejected():
    with pytest.raises(ParamFileError, match="expected 17 tokens.*got 18"):
        parse_params(CARBON_LINE + " 1.0")


def test_non_numeric_field_names_line_and_field():
    toks = CARBON_LINE.split()
    toks[6] = "abc"  # c
    with pytest.raises(ParamFileError, match=r":1: bad numeric token 'abc' for c"):
        parse_params(" ".join(toks))


def test_duplicate_entry_rejected():
    with pytest.raises(ParamFileError, match=r":2: duplicate entry for C C C"):
        parse_params(CARBON_LINE + "\n" + CARBON_LINE)


def test_missing_triple_rejected():
    # one extra species mentioned but its triples absent
    toks = CARBON_LINE.split()
    toks[2] = "Si"
    with pytest.raises(ParamFileError, match="incomplete table"):
        parse_params(CARBON_LINE + "\n" + " ".join(toks))


def test_invalid_values_rejected_with_line():
    def mutate(pos, val):
        toks = CARBON_LINE.split()
        toks[pos] = val
        return " ".join(toks)

    for pos, val, msg in [
        (3, "2.0", "m must be"),        # m not in {1,3}
        (3, "3.5", "m must be integral"),
        (16, "-1.0", "A must be positive"),
        (12, "0.0", "B must be positive"),
        (14, "0.0", "D must be positive"),
        (13, "0.1", "R must exceed D"),
        (9, "0.0", "eta must be positive"),
        (7, "0.0", "d must be nonzero"),
        (4, "-1.0", "gamma must be positive"),
        (3, "inf", "m must be integral"),
        (3, "nan", "m must be integral"),
        (15, "nan", "lam1 must be finite"),
        (8, "inf", "h must be finite"),
        (5, "-inf", "lam3 must be finite"),
    ]:
        with pytest.raises(ParamFileError, match=f":1: {msg}"):
            parse_params(mutate(pos, val))


def test_empty_file_rejected():
    with pytest.raises(ParamFileError, match="no parameter entries"):
        parse_params("# nothing here\n")


def test_load_params_from_disk(tmp_path):
    f = tmp_path / "c.tersoff"
    f.write_text(CARBON_LINE + "\n")
    t = load_params(f)
    assert t.entry(0, 0, 0).A == 1393.6
    # errors cite the path
    f.write_text("C C C 1 2 3\n")
    with pytest.raises(ParamFileError, match="c.tersoff:1"):
        load_params(f)
