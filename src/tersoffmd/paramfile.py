"""Tersoff parameter file reading and writing.

The format is the common 17-token one: each entry is a line of

    elem_i elem_j elem_k  m gamma lambda3 c d h eta beta lambda2 B R D lambda1 A

'#' starts a comment, blank lines are skipped, and a complete file holds one
entry for every ordered species triple. Parse errors carry the offending
line number.
"""

import importlib.resources
import math

from .potential import ParamTable, TersoffParams

# token index -> TersoffParams field, after the three element names
_NUMERIC_FIELDS = ("m", "gamma", "lam3", "c", "d", "h", "eta", "beta",
                   "lam2", "B", "R", "D", "lam1", "A")


class ParamFileError(ValueError):
    """Malformed parameter file; message names the line number."""


def parse_params(text, source="<string>"):
    """Parse parameter-file text into a ParamTable."""
    raw_entries = {}  # (name_i, name_j, name_k) -> (params, line_no)
    species = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 17:
            raise ParamFileError(
                f"{source}:{line_no}: expected 17 tokens per entry, "
                f"got {len(tokens)}")
        names = tokens[:3]
        values = {}
        for field, tok in zip(_NUMERIC_FIELDS, tokens[3:]):
            try:
                x = float(tok)
            except ValueError:
                raise ParamFileError(
                    f"{source}:{line_no}: bad numeric token {tok!r} "
                    f"for {field}") from None
            values[field] = x
        m = values["m"]
        if not (math.isfinite(m) and m == int(m)):
            raise ParamFileError(f"{source}:{line_no}: m must be integral, "
                                 f"got {m}")
        values["m"] = int(m)
        try:
            params = TersoffParams(**values)
        except ValueError as err:
            raise ParamFileError(f"{source}:{line_no}: {err}") from None
        key = tuple(names)
        if key in raw_entries:
            raise ParamFileError(
                f"{source}:{line_no}: duplicate entry for "
                f"{' '.join(names)} (first at line {raw_entries[key][1]})")
        raw_entries[key] = (params, line_no)
        for name in names:
            if name not in species:
                species.append(name)
    if not raw_entries:
        raise ParamFileError(f"{source}: no parameter entries found")
    index = {name: i for i, name in enumerate(species)}
    entries = {tuple(index[n] for n in key): p
               for key, (p, _) in raw_entries.items()}
    try:
        return ParamTable(species, entries)
    except ValueError as err:
        raise ParamFileError(f"{source}: {err}") from None


def serialize_params(table):
    """Write a ParamTable back to file text.

    Floats are emitted with repr so parse(serialize(t)) reproduces t
    exactly.
    """
    lines = ["# elem_i elem_j elem_k  m gamma lambda3 c d h eta beta"
             " lambda2 B R D lambda1 A"]
    s = table.nspecies
    for ti in range(s):
        for tj in range(s):
            for tk in range(s):
                p = table.entry(ti, tj, tk)
                toks = [table.species[ti], table.species[tj],
                        table.species[tk], str(p.m)]
                toks += [repr(getattr(p, f)) for f in _NUMERIC_FIELDS[1:]]
                lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def load_params(path):
    """Parse a parameter file from disk."""
    with open(path, encoding="utf-8") as fh:
        return parse_params(fh.read(), source=str(path))


def builtin_params(name="C"):
    """Load one of the parameter sets shipped with the package."""
    ref = importlib.resources.files("tersoffmd.data").joinpath(f"{name}.tersoff")
    return parse_params(ref.read_text(encoding="utf-8"), source=f"data/{name}.tersoff")
