"""Seeded input generators: graph-file text, cone words and their relatives.

Everything here is plain text or plain Python data; nothing imports
qmgraph.  The library only ever sees the texts, so parsing and expansion
happen inside each timed query, as they do for a command-line user.
"""

from __future__ import annotations

import random

# Prime-power orders keep the vertex count of a family fixed; composite
# orders are expanded by the library into a clique of primary factors.
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
COMPOSITES = (6, 10, 12, 15)
Z = None  # label of an infinite cyclic vertex


def label_text(order) -> str:
    return "Z" if order is None else f"Z/{order}"


def graph_text(vertices, edges) -> str:
    """Graph-file text from [(name, order)] and [(name, name)]."""
    lines = [f"vertex {v} {label_text(o)}" for v, o in vertices]
    lines += [f"edge {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def _named(labels, edges):
    names = [f"v{i}" for i in range(len(labels))]
    return graph_text(list(zip(names, labels)),
                      [(names[a], names[b]) for a, b in edges])


# -- graph families ----------------------------------------------------------

def mixed_path(rng: random.Random, n: int) -> str:
    """Path with Z at even positions and prime-power labels between.

    Z at both ends keeps the decision on one branch (a WeightedZ witness),
    so the cost of a size depends on n and hardly on the seed.
    """
    labels = [Z if i % 2 == 0 else rng.choice(PRIME_POWERS) for i in range(n)]
    return _named(labels, [(i, i + 1) for i in range(n - 1)])


def finite_cycle(rng: random.Random, n: int) -> str:
    """n-gon of finite labels with one composite order among them."""
    labels = [rng.choice(PRIME_POWERS) for _ in range(n)]
    labels[rng.randrange(n)] = rng.choice(COMPOSITES)
    return _named(labels, [(i, (i + 1) % n) for i in range(n)])


def b_graph(rng: random.Random, n: int) -> str:
    """B_n: path v0..v_{n-2} with v_{n-1}, v_n hung off v_{n-2}; finite."""
    labels = [rng.choice((2, 3, 4)) for _ in range(n + 1)]
    labels[rng.randrange(n + 1)] = rng.choice(COMPOSITES[:2])
    edges = [(i, i + 1) for i in range(n - 2)]
    edges += [(n - 2, n - 1), (n - 2, n)]
    return _named(labels, edges)


def mixed_tree(rng: random.Random, n: int) -> str:
    """Random recursive tree; labels alternate Z / prime power by depth."""
    parent = [-1] + [rng.randrange(i) for i in range(1, n)]
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    labels = [Z if depth[i] % 2 == 0 else rng.choice(PRIME_POWERS)
              for i in range(n)]
    return _named(labels, [(parent[i], i) for i in range(1, n)])


def star(k: int, centre, leaf) -> str:
    """K_{1,k}: centre c, leaves l0..l{k-1}, all leaves one label."""
    verts = [("c", centre)] + [(f"l{i}", leaf) for i in range(k)]
    return graph_text(verts, [("c", f"l{i}") for i in range(k)])


def mixed_star(rng: random.Random, k: int) -> str:
    """K_{1,k} with a Z centre and Z/3 leaves (k! autos).

    Not seeded: these decisions sit at decide-families' p90, and their
    cost changes with the leaf order.
    """
    return star(k, Z, 3)


def free_star(k: int, leaf) -> str:
    """Z * (Z/leaf)^{*k}: edgeless, the k finite vertices permutable."""
    return graph_text([("t", Z)] + [(f"u{i}", leaf) for i in range(k)], [])


def raag_path(rng: random.Random, n: int) -> str:
    """All-Z path whose vertices are listed in a seeded file order."""
    return _shuffled_raag(rng, n, [(i, i + 1) for i in range(n - 1)])


def raag_cycle(rng: random.Random, n: int) -> str:
    return _shuffled_raag(rng, n, [(i, (i + 1) % n) for i in range(n)])


def complete(rng: random.Random, n: int) -> str:
    """K_n with mixed labels: a finite or abelian group, decided at once."""
    labels = [rng.choice((Z,) + PRIME_POWERS + COMPOSITES) for _ in range(n)]
    return _named(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _shuffled_raag(rng, n, edges):
    order = list(range(n))
    rng.shuffle(order)
    names = [f"v{i}" for i in range(n)]
    return graph_text([(names[i], Z) for i in order],
                      [(names[a], names[b]) for a, b in edges])


def weighted_z_graph(rng: random.Random, form: int) -> str:
    """Free products whose decided witness uses the WeightedZ kind.

    No corpus graph yields that kind, so eval-words adds these.
    """
    if form == 0:  # Z * Z/m, m composite: the finite side expands to a clique
        return graph_text([("t", Z), ("u", rng.choice(COMPOSITES))], [])
    if form == 1:  # Z * (Z/p - Z/q)
        p, q = rng.sample(PRIME_POWERS, 2)
        return graph_text([("t", Z), ("u", p), ("w", q)], [("u", "w")])
    # Z * Z/p * Z/q
    p, q = rng.choice(PRIME_POWERS), rng.choice(COMPOSITES)
    return graph_text([("t", Z), ("u", p), ("w", q)], [])


# -- words --------------------------------------------------------------------

def _exponent(rng: random.Random, order) -> int:
    if order is None:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, order)


def cone_word(rng: random.Random, side_a, side_b, length: int):
    """Letters alternating between the two sides of a free splitting.

    side_a, side_b: [(vertex name, order)].  No edge joins the sides, so
    no two letters can merge and the reduced length equals `length`
    (uniform words over Z/5 * Z/3 collapse to a few letters instead).
    """
    side = rng.randrange(2)
    out = []
    for _ in range(length):
        name, order = rng.choice(side_a if side == 0 else side_b)
        out.append((name, _exponent(rng, order)))
        side ^= 1
    return out


def word_text(letters) -> str:
    return " ".join(name if e == 1 else f"{name}^{e}" for name, e in letters)


def inverse(letters):
    return [(name, -e) for name, e in reversed(letters)]


def power(letters, k: int):
    return (letters if k > 0 else inverse(letters)) * abs(k)


def conjugate(letters, by):
    """by · x · by^-1 as a letter list; parsing reduces it."""
    return list(by) + list(letters) + inverse(by)


def rotate(letters, r: int):
    """A cyclic conjugate."""
    r %= max(1, len(letters))
    return list(letters[r:]) + list(letters[:r])


def parse_letters(text: str):
    """Inverse of word_text for the library's printed words."""
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out
