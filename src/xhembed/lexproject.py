"""Project low-resource words into the high-resource embedding space through
their dictionary translations (sum of unit-normalized translation vectors)."""

from dataclasses import dataclass, field

import numpy as np

from .corpus import read_lines
from .embedstore import EmbeddingMatrix, unit_normalize


class LexiconError(ValueError):
    pass


def read_lexicon(path):
    """TSV: source word <tab> space-separated translation words, as a list
    of (source word, [translation words]) entries.  Blank lines skipped;
    duplicate source words rejected."""
    entries = []
    seen = {}
    for ln, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1].split():
            raise LexiconError(f"{path}:{ln}: expected 'word<TAB>translations'")
        word, trans = parts[0], parts[1].split()
        if word in seen:
            raise LexiconError(
                f"{path}:{ln}: duplicate source word {word!r} "
                f"(first at line {seen[word]})")
        seen[word] = ln
        entries.append((word, trans))
    return entries


def project_entry(entry, e_hr):
    """Sum of unit-normalized high-resource vectors of the translation words
    present in e_hr; None when every translation word is OOV."""
    _, trans = entry
    vecs = [unit_normalize(e_hr.get(w)) for w in trans if w in e_hr]
    if not vecs:
        return None
    return np.sum(vecs, axis=0)


@dataclass
class ProjectionReport:
    covered: int = 0
    skipped: list = field(default_factory=list)      # source words fully OOV
    dropped_words: dict = field(default_factory=dict)  # source word -> OOV translations

    def lines(self):
        return [f"covered\t{self.covered}", f"skipped\t{len(self.skipped)}",
                *(f"skip\t{w}\tall translations OOV" for w in self.skipped),
                *(f"dropped\t{w}\t{' '.join(dropped)}"
                  for w, dropped in self.dropped_words.items())]


def build_projected_matrix(lexicon, e_hr):
    """One row per covered entry of the `lexicon` list, dim = dim(e_hr);
    report accounts for every entry (covered + skipped = |lexicon|)."""
    tokens, rows = [], []
    report = ProjectionReport()
    for entry in lexicon:
        word, trans = entry
        missing = [w for w in trans if w not in e_hr]
        vec = project_entry(entry, e_hr)
        if vec is None:
            report.skipped.append(word)
            continue
        if missing:
            report.dropped_words[word] = missing
        report.covered += 1
        tokens.append(word)
        rows.append(vec)
    mat = EmbeddingMatrix(
        tokens, np.stack(rows) if rows else np.zeros((0, e_hr.dim)))
    return mat, report
