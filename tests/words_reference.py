"""The normaliser that `qmgraph.words` used before the single letter push.

Kept verbatim as the oracle of the differential test in test_words.py:
`_reduce` merges letters until none can merge, then `_canonical` emits
the lexicographically least shuffle.  Both are quadratic or worse.
"""

from qmgraph.graphs import LabeledGraph
from qmgraph.words import Letter, _norm_exp


def _reduce(g: LabeledGraph, letters: list[Letter]) -> list[Letter]:
    """Merge letters of equal vertex separated only by commuting letters.

    Quadratic scan restarted after every merge; fine at desk scale.
    """
    letters = [(v, e) for v, e in ((v, _norm_exp(g, v, e)) for v, e in letters)
               if e != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            v = letters[i][0]
            blocked = False
            for j in range(i + 1, len(letters)):
                w = letters[j][0]
                if w == v:
                    e = _norm_exp(g, v, letters[i][1] + letters[j][1])
                    del letters[j]
                    if e == 0:
                        del letters[i]
                    else:
                        letters[i] = (v, e)
                    changed = True
                    blocked = True
                    break
                if not g.adjacent(v, w):
                    blocked = True
                    break
            if blocked and changed:
                break
    return letters


def _canonical(g: LabeledGraph, letters: list[Letter]) -> tuple[Letter, ...]:
    """Lexicographically least shuffle of a merge-free letter sequence.

    Repeatedly emits the least-vertex letter that commutes with everything
    still ahead of it.
    """
    out = []
    rem = list(letters)
    while rem:
        best = None
        for i, (v, _) in enumerate(rem):
            if all(w != v and g.adjacent(w, v) for w, _ in rem[:i]):
                if best is None or v < rem[best][0]:
                    best = i
        out.append(rem.pop(best))
    return tuple(out)


def reference_normal_form(g: LabeledGraph, letters) -> tuple[Letter, ...]:
    return _canonical(g, _reduce(g, list(letters)))
