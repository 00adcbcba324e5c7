"""Independent oracles shared by test modules.

These deliberately avoid the package's own code paths: determinants by
Bareiss elimination, invariant factors by minor gcds, components by
union-find, rooted tables of every start and canonical tables by exhaustive
minimization without pruning, automorphisms by trying every vertex
permutation (against each given color permutation, when colors may move),
joined pairs by trying every vertex pair and color, residue classes and
bigon tables from each residue's own subgraph, singular-set components by
joining every comparable pair of singular residues, covers below a residue
from the residue through each of its vertices.  `bipartite_table` draws
seeded bipartite inputs for them.
The one exception, `simplify_by_reclassification`, keeps an earlier policy
of the package as a reference for the one that replaced it.
"""

import itertools
from math import gcd


def det(matrix):
    """Integer determinant by fraction-free Gaussian elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def minor_gcd_invariant_factors(rows, width):
    """Invariant factors d_k / d_{k-1} from gcds of all k x k minors."""
    nr = len(rows)
    rank_max = min(nr, width)
    divisors = [1]
    for k in range(1, rank_max + 1):
        g = 0
        for ris in itertools.combinations(range(nr), k):
            for cis in itertools.combinations(range(width), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, abs(det(sub)))
            if g == 1:  # no further minor can lower it
                break
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def union_find_components(g, cols):
    return table_components([g.matchings[c] for c in cols], g.order)


def joined_pairs_by_brute_force(rows, vertices):
    """Every (v, w, colors) with v < w among `vertices` joined by at least
    one color and not by all of them, each pair and color tried in turn."""
    out = []
    for v, w in itertools.combinations(sorted(vertices), 2):
        cols = tuple(c for c, row in enumerate(rows) if row[v] == w)
        if 1 <= len(cols) < len(rows):
            out.append((v, w, cols))
    return out


def bipartite_table(n, order, rng):
    """The rows of a seeded connected bipartite graph on n+1 colors, drawn
    as the survey benchmark draws them: color 0 standard, every other color
    a random matching of even vertices to odd ones, drawn again until the
    union is connected."""
    while True:
        rows = [tuple(v ^ 1 for v in range(order))]
        for _ in range(n):
            odd = list(range(1, order, 2))
            rng.shuffle(odd)
            row = [0] * order
            for i, w in enumerate(odd):
                row[2 * i], row[w] = w, 2 * i
            rows.append(tuple(row))
        if len(table_components(rows, order)) == 1:
            return tuple(rows)


def table_components(rows, order):
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        for v in range(order):
            a, b = find(v), find(row[v])
            if a != b:
                parent[a] = b
    groups = {}
    for v in range(order):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in groups.values())


def two_coloring(g):
    """Sides of a 2-coloring found by traversal, or None if there is none."""
    side = [None] * g.order
    side[0] = 0
    queue = [0]
    while queue:
        v = queue.pop()
        for c in g.colors:
            w = g.matchings[c][v]
            if side[w] is None:
                side[w] = 1 - side[v]
                queue.append(w)
            elif side[w] == side[v]:
                return None
    return side


def bicolored_cycles(rows, i, j):
    """Number of {i, j}-colored cycles of a matching table, by direct walking."""
    seen = set()
    count = 0
    for v in range(len(rows[0])):
        if v in seen:
            continue
        u = v
        while u not in seen:
            seen.add(u)
            step = rows[i][u]
            seen.add(step)
            u = rows[j][step]
        count += 1
    return count


def cycle_complex_h1(rows):
    """H1 of a matching table plus one disk per bicolored cycle, as
    (free rank, torsion): cycles walked edge by edge and counted against
    `bicolored_cycles`, a BFS spanning tree contracted, each relator that is
    a single generator used to delete it (a Tietze move), then invariant
    factors by minor gcds."""
    k, order = len(rows), len(rows[0])
    edges = sorted({(c, min(v, rows[c][v])) for c in range(k) for v in range(order)})
    col = {e: i for i, e in enumerate(edges)}
    relators = []
    for i, j in itertools.combinations(range(k), 2):
        seen = set()
        for start in range(order):
            if start in seen:
                continue
            rel = [0] * len(edges)
            v, c = start, i
            while True:
                seen.add(v)
                w = rows[c][v]
                rel[col[c, min(v, w)]] += 1 if v < w else -1
                v, c = w, (j if c == i else i)
                if v == start and c == i:
                    break
            relators.append(rel)
    assert len(relators) == sum(bicolored_cycles(rows, i, j) for i, j in itertools.combinations(range(k), 2))
    tree, reached = set(), [0]
    for u in reached:
        for c in range(k):
            if rows[c][u] not in reached:
                reached.append(rows[c][u])
                tree.add(col[c, min(u, rows[c][u])])
    mat = [[x for e, x in enumerate(rel) if e not in tree] for rel in relators]
    while True:
        single = next((r for r in mat if sorted(map(abs, r))[-2:] == [0, 1]), None)
        if single is None:
            break
        gen = single.index(1) if 1 in single else single.index(-1)
        mat = [r[:gen] + r[gen + 1:] for r in mat if r is not single]
    width = len(edges) - len(tree) - (len(relators) - len(mat))
    factors = minor_gcd_invariant_factors(mat, width)
    return width - len(factors), tuple(d for d in factors if d > 1)


def residue_bigon_tables(g, c):
    """Bigon table (pair mask -> bicolored cycles) of every residue of g
    missing color c, keyed by its minimum vertex: each residue cut out as its
    own table and its cycles walked there."""
    cols = [d for d in g.colors if d != c]
    out = {}
    for comp in table_components([g.matchings[d] for d in cols], g.order):
        sub = _sub_table(g.matchings, cols, comp)
        out[comp[0]] = {
            1 << cols[i] | 1 << cols[j]: bicolored_cycles(sub, i, j)
            for i, j in itertools.combinations(range(len(cols)), 2)
        }
    return out


def bigon_count(g):
    """Number of bicolored cycles over all color pairs, by direct walking."""
    return sum(
        bicolored_cycles(g.matchings, i, j)
        for i, j in itertools.combinations(g.colors, 2)
    )


# ============================================================
# Canonical form, by its definition
# ============================================================


def _bfs_order(rows, start):
    """Discovery order of a BFS from `start` that scans colors in
    increasing order."""
    queue = [start]
    seen = {start}
    for u in queue:
        for row in rows:
            if row[u] not in seen:
                seen.add(row[u])
                queue.append(row[u])
    return queue


def _bfs_relabeled(rows, start):
    """The table relabeled by discovery order of a BFS from `start` that
    scans colors in increasing order."""
    queue = _bfs_order(rows, start)
    label = {v: i for i, v in enumerate(queue)}
    return tuple(tuple(label[row[v]] for v in queue) for row in rows)


def rooted_tables(rows):
    """Every start vertex's rooted table of a connected table, built in full
    with no pruning, paired with its discovery order, in start order."""
    return [(_bfs_relabeled(rows, s), _bfs_order(rows, s)) for s in range(len(rows[0]))]


def _canonical_fixed_colors(rows):
    parts = []
    for comp in table_components(rows, len(rows[0])):
        index = {v: i for i, v in enumerate(comp)}
        sub = tuple(tuple(index[row[v]] for v in comp) for row in rows)
        parts.append(min(_bfs_relabeled(sub, s) for s in range(len(comp))))
    parts.sort(key=lambda t: (len(t[0]), t))
    stacked = []
    for c in range(len(rows)):
        row = []
        offset = 0
        for part in parts:
            row.extend(x + offset for x in part[c])
            offset += len(part[c])
        stacked.append(tuple(row))
    return tuple(stacked)


def automorphisms(rows):
    """Every vertex permutation s with m(s(v)) = s(m(v)) for each row m and
    vertex v, by trying all order! permutations: keep order <= 6."""
    order = len(rows[0])
    return [
        s
        for s in itertools.permutations(range(order))
        if all(row[s[v]] == s[row[v]] for row in rows for v in range(order))
    ]


def color_permuting_automorphisms(rows, color_perms):
    """Every vertex permutation s for which some color permutation p in
    `color_perms` gives m_p(c)(s(v)) = s(m_c(v)) for each color c and vertex
    v, by trying all order! vertex permutations against each p: keep
    order <= 6."""
    order = len(rows[0])
    return [
        s
        for s in itertools.permutations(range(order))
        if any(
            all(rows[p[c]][s[v]] == s[row[v]] for c, row in enumerate(rows) for v in range(order))
            for p in color_perms
        )
    ]


def color_signatures(rows):
    """Each color's sorted bicolored cycle counts with every other color."""
    k = len(rows)
    return [sorted(bicolored_cycles(rows, c, d) for d in range(k) if d != c) for c in range(k)]


def admissible_color_orders(rows):
    """Every color order whose signatures are non-decreasing, in
    lexicographic order."""
    sig = color_signatures(rows)
    return [
        perm
        for perm in itertools.permutations(range(len(rows)))
        if all(sig[perm[i]] <= sig[perm[i + 1]] for i in range(len(rows) - 1))
    ]


def canonical_table(rows, color_permuting=False):
    """Minimum over every start vertex of the full BFS relabeling, per
    component; with color permutation, also over every color order whose
    per-color signatures (sorted bicolored cycle counts with each other
    color) are non-decreasing."""
    rows = tuple(tuple(r) for r in rows)
    if not color_permuting:
        return _canonical_fixed_colors(rows)
    return min(
        _canonical_fixed_colors(tuple(rows[c] for c in perm))
        for perm in admissible_color_orders(rows)
    )


# ============================================================
# Residue classes, each residue tested on its own subgraph
# ============================================================


def residue_classes(g):
    """Class name ("ordinary", "singular" or "unknown") of every residue of g
    on three or more colors, keyed (color mask, minimum vertex).  Each
    residue is cut out as its own table and tested there: order two, a
    2-coloring, the Euler count over every proper color subset of the
    table, and the same test, recursively, on the table's own residues.
    Only what passes all of them is handed to `sphere_status`, for the
    dipole reduction and H1."""
    out = {}
    for k in range(3, g.n + 1):
        for cols in itertools.combinations(g.colors, k):
            mask = sum(1 << c for c in cols)
            for comp in table_components([g.matchings[c] for c in cols], g.order):
                out[mask, comp[0]] = _table_class(_sub_table(g.matchings, cols, comp))
    return out


def singular_components(g):
    """Components of the singular set by brute force: every singular residue
    of `residue_classes` with its vertex set, and every comparable pair of
    them joined.  Each component as (sorted member keys, dimension, Euler
    number), ordered by first key."""
    classes = residue_classes(g)
    members = {}
    for k in range(3, g.n + 1):
        for cols in itertools.combinations(g.colors, k):
            mask = sum(1 << c for c in cols)
            for comp in table_components([g.matchings[c] for c in cols], g.order):
                if classes[mask, comp[0]] == "singular":
                    members[mask, comp[0]] = set(comp)

    def comparable(a, b):
        (ma, _), (mb, _) = a, b
        va, vb = members[a], members[b]
        return (ma & mb == ma and va <= vb) or (ma & mb == mb and vb <= va)

    out = []
    left = sorted(members)
    while left:
        comp = [left.pop(0)]
        for a in comp:  # grows while iterating
            joined = [b for b in left if comparable(a, b)]
            comp += joined
            left = [b for b in left if b not in joined]
        hs = [bin(mask).count("1") for mask, _ in comp]
        out.append((sorted(comp), g.n - min(hs), sum((-1) ** (g.n - h) for h in hs)))
    return sorted(out)


def covers_below(lattice, rv):
    """The residues one color poorer contained in rv, each once, by color
    dropped and then by first vertex: the residue of the smaller color set
    through every vertex of rv."""
    out = []
    for c in rv.colors:
        sub = rv.mask & ~(1 << c)
        for v in rv.vertices:
            child = lattice.residue_containing(sub, v)
            if child not in out:
                out.append(child)
    return out


def _sub_table(rows, cols, comp):
    index = {v: i for i, v in enumerate(comp)}
    return tuple(tuple(index[rows[c][v]] for v in comp) for c in cols)


def _table_class(rows):
    from gemkit import ColoredGraph, Verdict, sphere_status

    h, order = len(rows), len(rows[0])
    if order == 2:
        return "ordinary"
    g = ColoredGraph(rows)
    if two_coloring(g) is None:
        return "singular"
    chi = sum(
        (-1) ** (h - 1 - k) * len(table_components([rows[c] for c in sub], order))
        for k in range(h)
        for sub in itertools.combinations(range(h), k)
    )
    if chi != (2 if h % 2 else 0):
        return "singular"
    for k in range(3, h):
        for sub in itertools.combinations(range(h), k):
            for comp in table_components([rows[c] for c in sub], order):
                if _table_class(_sub_table(rows, sub, comp)) == "singular":
                    return "singular"
    if h == 3:
        return "ordinary"
    verdict = sphere_status(g).verdict
    return {Verdict.SPHERE: "ordinary", Verdict.NOT_SPHERE: "singular"}.get(verdict, "unknown")


def simplify_by_reclassification(g):
    """The original `simplify` loop: label every dipole of the whole graph
    with `find_dipoles` after each move, cancel the ordinary one with the
    most colors and the smallest vertex pair, and stop when none is left.
    Returns (graph, cancelled dipoles, complete)."""
    from gemkit import DipoleKind, cancel_dipole, find_dipoles

    cur = g
    cancelled = []
    while True:
        dipoles = find_dipoles(cur)
        ordinary = [d for d in dipoles if d.kind is DipoleKind.ORDINARY]
        if not ordinary:
            complete = all(d.kind is not None for d in dipoles)
            return cur, tuple(cancelled), complete
        pick = max(ordinary, key=lambda d: (d.h, tuple(-x for x in d.vertices)))
        cur = cancel_dipole(cur, pick)
        cancelled.append(pick)
